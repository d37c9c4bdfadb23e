"""The three benchmark workloads: seeded inputs, one timed operation, checks.

A workload object is built from a seed alone.  It holds ``size`` inputs,
and ``op(i)`` performs one operation on input ``i % size``; ``check`` later
judges the records the operations returned, outside the timed section.  The
inputs cycle through the classes the cost depends on (rank, cycle length),
so every prefix of a run sees the same mix of classes whatever the seed;
the seed only picks the members.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import circleconj as cc
from circleconj import cli
from circleconj.exactnum import Surd

# sqrt(2)-1 and (sqrt(5)-1)/2 have continued-fraction period 1, sqrt(94)-9
# period 16: the period sets how much exact work an alpha costs.
BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))

GOLDEN = str(Path(__file__).resolve().parents[1] / "samples" / "golden_k3.json")

# Failed operations listed in a report, with their inputs.
MAX_LISTED = 5

# Largest circular gap an orbit call may leave: the package's own test of
# orbit_sample asks for less than this from 800 draws (the --quick size),
# and a full-size call makes 2000.
ORBIT_MAX_GAP = 0.15

# Inputs left out because the package fails on them (bench/README.md, "Known
# defects"; bench/tests/test_known_defects.py reproduces both):
# - verify pairs whose witness has a stabilizer power f_alpha with an entry
#   above this; the realized map shrinks the --corrupt-witness change below
#   the tolerance, and the control is accepted.
MAX_F_ALPHA_ENTRY = 10**5
# - orbit start points whose line-chart coordinate lies closer than this to
#   an integer; on ranks 3 and 4, 2000 draws then leave gaps up to 0.25.
MIN_LINE_OFFSET = 0.2


class OpError:
    """Record of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def _safely(check, *args):
    """``check(*args)``, or False when it raises: a malformed output fails
    its operation instead of ending the run."""
    try:
        return check(*args)
    except Exception:
        return False


def gl2z_image(base: Surd, rng: random.Random, depth: int) -> Surd:
    """``base`` pushed through ``depth`` seeded steps x -> 1/(a + x).

    Each step is an integer Mobius map of determinant -1 that keeps (0, 1)
    in itself, so the result is a GL(2,Z) image of ``base`` reduced into
    (0, 1), with ``depth`` extra partial quotients in its preperiod.
    """
    x = base
    for _ in range(depth):
        x = 1 / (rng.randint(1, 5) + x)
    return x


def control_is_sensitive(wit) -> bool:
    """Whether the --corrupt-witness control of this witness can fail at the
    tolerance (see MAX_F_ALPHA_ENTRY)."""
    f = wit.M.f_alpha
    return max(abs(f.m2), abs(f.m1), abs(f.n2), abs(f.n1)) <= MAX_F_ALPHA_ENTRY


def orbit_start(rng: random.Random, k: int) -> Fraction:
    """A seeded start point in the middle 90% of an arc, so no draw starts
    inside the trust margin of a marked point, and off the line-chart
    integers (see MIN_LINE_OFFSET)."""
    arc = rng.randrange(k)
    while True:
        t0 = Fraction(round((arc + rng.uniform(0.05, 0.95)) / k * 10**4), 10**4)
        # the line coordinate orbit_sample gives t0 inside its arc
        line = math.tan(math.pi * (float(t0) * k - arc - 0.5))
        if abs(line - round(line)) >= MIN_LINE_OFFSET:
            return t0


def valid_gs(n: int, k: int, span: int) -> list:
    return [g for g in product(range(-span, span + 1), repeat=n) if cc.validate_g(g, k)[0]]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _run_cli(argv: list) -> tuple:
    """(exit code, stdout text) of one in-process ``circleconj`` call; an
    argparse exit counts as the exit code it carries."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Classify:
    """``decide`` on every ordered pair of a family at n = 3, k = 6.

    Three bases times ``images`` GL(2,Z) images (preperiod depth 1, 2, ...)
    times ``per_alpha`` twist vectors from [-3, 3]^3, so each alpha is in
    hundreds of pairs.  The pair order is a seeded shuffle, so any prefix of
    a pass is a fair sample of the family.
    """

    name = "classify"
    unit = "pairs"
    units_per_op = 1

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        images, per_alpha = (1, 2) if quick else (4, 3)
        rng = random.Random(seed)
        gs = valid_gs(3, 6, 3)
        self.family = []
        for base in BASES:
            for depth in range(1, images + 1):
                alpha = gl2z_image(base, rng, depth)
                for _ in range(per_alpha):
                    self.family.append(cc.CircleGroupDescriptor(alpha, 3, 6, rng.choice(gs)))
        n = len(self.family)
        self.pairs = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(self.pairs)
        self.size = len(self.pairs)

    def fingerprint(self) -> str:
        return canonical([[d.to_json() for d in self.family], self.pairs])

    def _pair(self, p: int) -> tuple:
        i, j = self.pairs[p]
        return self.family[i], self.family[j]

    def op(self, i: int):
        dec = cc.decide(*self._pair(i % self.size))
        # whole decisions for the first pass only; later passes repeat the
        # same pairs, so their verdicts are enough to compare
        return dec if i < self.size else dec.verdict

    def _decision_ok(self, p: int, dec) -> bool:
        if dec.verdict != cc.decide_oracle(*self._pair(p)):
            return False
        return dec.witness is None or cc.check_witness(*self._pair(p), dec.witness)[0]

    def check(self, records: list) -> dict:
        first = list(records[: self.size])
        # finish the first pass untimed, so the digest covers the whole family
        for p in range(len(first), self.size):
            try:
                first.append(cc.decide(*self._pair(p)))
            except Exception as exc:
                first.append(OpError(exc))
        digest = hashlib.sha256()
        good = []
        for p, dec in enumerate(first):
            line = not isinstance(dec, OpError) and _safely(lambda: canonical(dec.to_json()))
            if not line:
                good.append(False)
                continue
            digest.update(line.encode() + b"\n")
            good.append(_safely(self._decision_ok, p, dec))
        failed, failures = 0, []
        for i, rec in enumerate(records):
            p = i % self.size
            if not (good[p] and (i < self.size or rec == first[p].verdict)):
                failed += 1
                if len(failures) < MAX_LISTED:
                    verdict = rec.text if isinstance(rec, OpError) else getattr(rec, "verdict", rec)
                    failures.append({"op": i, "pair": [d.to_json() for d in self._pair(p)], "got": verdict})
        positives = sum(not isinstance(d, OpError) and d.verdict == "conjugate" for d in first)
        return {
            "failed": failed,
            "failures": failures,
            "verdict_digest": digest.hexdigest(),
            "family_size": len(self.family),
            "positive_share": positives / self.size,
        }


class Verify:
    """``circleconj verify A B --grid 48`` on seeded conjugate pairs.

    Rounds of one pair for each n in {2, 3} and k in 2..6, each over a
    seeded base; the two alphas of a pair are independent GL(2,Z) images of
    that base, so most witnesses carry a base change A other than the
    identity.  Pairs whose control cannot fail are redrawn
    (MAX_F_ALPHA_ENTRY).  The pool outlasts a run, so no pair is verified
    twice.
    """

    name = "verify"
    unit = "pairs"
    units_per_op = 1

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        # cheap and dear classes alternate, so a run that stops inside a
        # round still sees about the average cost
        classes = [(2, 2), (3, 3)] if quick else [c for k in range(2, 7) for c in ((2, k), (3, 8 - k))]
        self.grid = "8" if quick else "48"
        rng = random.Random(seed)
        self.pairs = []
        for _ in range(2 if quick else 20):
            for n, k in classes:
                d1, d2 = self._conjugate_pair(rng, n, k, rng.choice(BASES))
                paths = []
                for side, d in (("a", d1), ("b", d2)):
                    path = os.path.join(workdir, f"verify-{len(self.pairs)}{side}.json")
                    _write_json(path, d.to_json())
                    paths.append(path)
                self.pairs.append((d1, d2, paths))
        self.size = len(self.pairs)
        self._controls = {}

    @staticmethod
    def _conjugate_pair(rng, n, k, base):
        gs = valid_gs(n, k, 2)
        while True:
            d1 = cc.CircleGroupDescriptor(gl2z_image(base, rng, rng.randint(1, 3)), n, k, rng.choice(gs))
            d2 = cc.CircleGroupDescriptor(gl2z_image(base, rng, rng.randint(1, 3)), n, k, rng.choice(gs))
            if d1 == d2:
                continue
            dec = cc.decide(d1, d2)
            if dec.verdict == "conjugate" and control_is_sensitive(dec.witness):
                return d1, d2

    def fingerprint(self) -> str:
        return canonical([[d1.to_json(), d2.to_json()] for d1, d2, _ in self.pairs])

    def op(self, i: int):
        a, b = self.pairs[i % self.size][2]
        return _run_cli(["verify", a, b, "--grid", self.grid])

    def _control_rejected(self, p: int) -> bool:
        """The pair's corrupted-witness control must exit 1 (not verified)."""
        if p not in self._controls:
            a, b = self.pairs[p][2]
            self._controls[p] = _safely(
                lambda: _run_cli(["verify", a, b, "--grid", self.grid, "--corrupt-witness"])[0] == 1
            )
        return self._controls[p]

    @staticmethod
    def _outcome(rec) -> tuple:
        """(ok, evaluated, skipped) of one verify call."""
        if isinstance(rec, OpError) or rec[0] != 0:
            return False, 0, 0
        report = json.loads(rec[1])["report"]
        gens = report["generators"]
        return report["ok"], sum(g["evaluated"] for g in gens), sum(g["skipped"] for g in gens)

    def check(self, records: list) -> dict:
        failed = evaluated = skipped = 0
        failures = []
        for i, rec in enumerate(records):
            p = i % self.size
            ok, e, s = _safely(self._outcome, rec) or (False, 0, 0)
            evaluated += e
            skipped += s
            if not (self._control_rejected(p) and ok):
                failed += 1
                if len(failures) < MAX_LISTED:
                    d1, d2, _ = self.pairs[p]
                    failures.append({"op": i, "pair": [d1.to_json(), d2.to_json()], "verified": ok,
                                     "control_rejected": self._controls[p]})
        return {
            "failed": failed,
            "failures": failures,
            "skipped_share": skipped / max(1, evaluated + skipped),
            "controls_rejected": sum(self._controls.values()),
            "controls_run": len(self._controls),
        }


class Orbit:
    """``circleconj orbit D --t0 T --count 2000`` on a seeded pool.

    Rounds of samples/golden_k3.json (k = 3) and seeded descriptors of rank
    2, 3 and 4 (wrap depths 0 to 2) whose cycle lengths are a seeded
    permutation of 1, 2 and 4, each call with a seeded start point inside
    an arc and its own draw seed.  The pool outlasts a run.
    """

    name = "orbit"
    unit = "draws"

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.count = 800 if quick else 2000
        self.units_per_op = self.count
        self.workdir = workdir
        rng = random.Random(seed)
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden_k = json.load(fh)["k"]
        self.calls = []
        for _ in range(1 if quick else 10):
            ks = rng.sample((1, 2, 4), 3)
            # cheapest (n = 2) and dearest (n = 4) first, as in Verify
            for n, k in ((2, ks[0]), (4, ks[2]), (3, ks[1]), (None, golden_k)):
                if n is None:
                    path = GOLDEN
                else:
                    alpha = gl2z_image(rng.choice(BASES), rng, rng.randint(1, 3))
                    d = cc.CircleGroupDescriptor(alpha, n, k, rng.choice(valid_gs(n, k, 2)))
                    path = os.path.join(workdir, f"orbit-{len(self.calls)}.json")
                    _write_json(path, d.to_json())
                self.calls.append((path, str(orbit_start(rng, k)), rng.randrange(10**6)))
        self.size = len(self.calls)

    def fingerprint(self) -> str:
        return canonical(self.calls)

    def op(self, i: int):
        path, t0, seed = self.calls[i % self.size]
        out = os.path.join(self.workdir, f"orbit-{i}.csv")
        rc, text = _run_cli(
            ["orbit", path, "--t0", t0, "--count", str(self.count), "--out", out, "--seed", str(seed)]
        )
        return rc, text, out

    def _outcome(self, rec) -> tuple:
        """(ok, skipped draws) of one orbit call."""
        if isinstance(rec, OpError) or rec[0] != 0:
            return False, 0
        rc, text, out = rec
        summary = json.loads(text)
        with open(out, "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        values = [float(row.split(",")[1]) for row in rows]
        ok = (
            float(summary["max_gap"]) < ORBIT_MAX_GAP
            and len(values) == self.count + 1 - summary["skipped"]
            and all(0 <= v < 1 for v in values)
        )
        return ok, summary["skipped"]

    def check(self, records: list) -> dict:
        failed = skipped = 0
        failures = []
        for i, rec in enumerate(records):
            ok, s = _safely(self._outcome, rec) or (False, 0)
            skipped += s
            if not ok:
                failed += 1
                if len(failures) < MAX_LISTED:
                    path, t0, seed = self.calls[i % self.size]
                    with open(path, "r", encoding="utf-8") as fh:
                        descriptor = json.load(fh)
                    output = rec.text if isinstance(rec, OpError) else rec[1]
                    failures.append({"op": i, "descriptor": descriptor, "t0": t0, "seed": seed, "output": output})
        return {
            "failed": failed,
            "failures": failures,
            "skipped_share": skipped / max(1, self.count * len(records)),
        }


WORKLOADS = {"classify": Classify, "verify": Verify, "orbit": Orbit}
