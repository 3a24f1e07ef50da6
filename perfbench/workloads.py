"""The three benchmark workloads: seeded job lists, job execution, answer checks.

A job is a tuple (kind, args...). `make` builds a workload's job list and the
expectations its checks need from a random.Random, `run` executes one job
through the library and returns its answer, and `check` returns the errors
found in that answer by an independent route (an empty list when it is
right). Jobs call only names exported from `carryideals` and
`carryideals.cli.main`, looked up at call time so that the traced run sees
every call. Checks call nothing in the library; they read only the
attributes of its answers.
"""

import contextlib
import io
import json
import sys

import checks


def random_composition(rng, d, n):
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    bounds = [0] + cuts + [d]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def random_pattern(rng, d, n, p):
    """A realizable carry pattern: the carry of a random composition, joined
    with a second one half the time to reach higher lattice elements."""
    c = checks.carry(random_composition(rng, d, n), p)
    if rng.random() < 0.5:
        c2 = checks.carry(random_composition(rng, d, n), p)
        c = tuple(max(a, b) for a, b in zip(c, c2))
    return c


def fmt(c):
    return "(" + ",".join(map(str, c)) + ")"


def label_text(n, p, d, c):
    return f"n={n} p={p} d={d} c={fmt(c)}"


def ideal_text(gens, n, p):
    lines = [f"ring n={n} p={p}"] + [" ".join(map(str, g)) for g in sorted(gens)]
    return "\n".join(lines) + "\n"


def scaled(count, scale):
    return max(1, round(count * scale))


# ---------------------------------------------------------------------------
# ideal_build: carry ideals, decomposition and invariance

PRIMES = (2, 3, 5)

# (kind, n, primes, degree window, jobs). Each (n, primes, window) has a pool
# of six contexts (p, d): p in turn, d spread evenly over the window. Jobs
# cycle through the pool, so contexts repeat and the caches act, and the
# seed picks degrees and patterns but not the mix of costs. Decompose jobs
# sum 1, 2 or 3 labels in turn, at most DECOMPOSE_SPREAD degrees apart.
BUILD_MIX = (
    ("build", 2, PRIMES, (440, 500), 30),
    ("witness", 2, PRIMES, (440, 500), 10),
    ("decompose", 2, PRIMES, (120, 160), 12),
    ("build", 3, PRIMES, (52, 60), 40),
    ("witness", 3, PRIMES, (52, 60), 10),
    ("decompose", 3, PRIMES, (22, 26), 12),
    ("build", 4, (3,), (37, 40), 24),
)
POOL_SIZE = 6
DECOMPOSE_SPREAD = 3


def make_ideal_build(rng, scale):
    jobs, pools = [], {}
    for kind, n, primes, (lo, hi), count in BUILD_MIX:
        key = (n, primes, lo, hi)
        if key not in pools:
            step = (hi - lo) / POOL_SIZE
            pools[key] = [(primes[k % len(primes)], lo + int(step * (k + rng.random())))
                          for k in range(POOL_SIZE)]
        pool = pools[key]
        for k in range(scaled(count, scale)):
            p, d = pool[k % POOL_SIZE]
            if kind == "decompose":
                labels = []
                for _ in range(k % 3 + 1):
                    e = d - rng.randint(0, DECOMPOSE_SPREAD)
                    labels.append((random_pattern(rng, e, n, p), e))
                jobs.append((kind, n, p, tuple(labels)))
            else:
                job = (kind, n, p, d, random_pattern(rng, d, n, p))
                jobs.append(job + (rng.random(),) if kind == "witness" else job)
    rng.shuffle(jobs)
    return jobs, {}


def run_ideal_build(job, api):
    kind, n, p = job[:3]
    ci = api.ci
    if kind == "build":
        return ci.carry_ideal(job[4], job[3], n, p)
    if kind == "decompose":
        ideal = ci.ideal_from_labels(job[3], n, p)
        return ideal, ci.is_invariant(ideal), ci.decompose(ideal)
    ideal = ci.carry_ideal(job[4], job[3], n, p)
    gens = ideal.generators
    drop = int(job[5] * len(gens))
    cut = ci.MonomialIdeal(gens[:drop] + gens[drop + 1 :] or gens, n, p)
    return cut, ci.invariance_witness(cut)


def check_ideal_build(job, answer, expect):
    kind, n, p = job[:3]
    if kind == "build":
        want = checks.carry_generators(job[4], job[3], n, p)
        got = set(answer.generators)
        return [] if got == want else [f"generators differ: {len(got)} vs {len(want)}"]
    if kind == "decompose":
        ideal, invariant, labels = answer
        errors = []
        if set(ideal.generators) != checks.label_generators(job[3], n, p):
            errors.append("sum of labels has the wrong generators")
        if not invariant:
            errors.append("a sum of carry ideals was called not invariant")
        if checks.label_generators(labels, n, p) != set(ideal.generators):
            errors.append("decomposition does not rebuild the ideal")
        return errors
    cut, witness = answer
    gens = set(cut.generators)
    whole = checks.carry_generators(job[4], job[3], n, p)
    if not gens <= whole or len(whole) - len(gens) != min(len(whole) - 1, 1):
        return ["the cut ideal is not the carry ideal minus one generator"]
    if witness is None:
        return [] if checks.is_invariant(gens, n, p) else ["missed non-invariance"]
    return checks.check_witness(witness, gens, p)


# ---------------------------------------------------------------------------
# betti_koszul: Betti tables and regularity over F_p

# (n, degree window, colength window, jobs). The k-th job of a stratum has
# p = PRIMES[k % 3] and sums 1 + k % 2 carry ideals; the degree windows are
# where such colengths are common, which keeps the rejection sampling short.
# The strata are sized so that the median and the 90th percentile of the job
# latencies fall inside the third and the fifth stratum.
BETTI_STRATA = (
    (3, (4, 7), (20, 60), 35),
    (4, (4, 5), (20, 50), 20),
    (3, (7, 9), (100, 180), 45),
    (4, (5, 6), (60, 100), 20),
    (4, (6, 7), (120, 150), 30),
)
MAX_DRAWS = 10000


def make_betti_koszul(rng, scale):
    """Jobs stratified by colength, drawn by rejection from random sums of one
    or two carry ideals of low degree; expect maps each job to the graded
    dimensions of its quotient."""
    jobs, expect = [], {}
    for n, (d_lo, d_hi), (lo, hi), count in BETTI_STRATA:
        for k in range(scaled(count, scale)):
            p = PRIMES[k % 3]
            for _ in range(MAX_DRAWS):
                labels = []
                for _ in range(1 + k % 2):
                    d = rng.randint(d_lo, d_hi)
                    labels.append((random_pattern(rng, d, n, p), d))
                job = ("betti", n, p, tuple(labels))
                if job not in expect:
                    gens = checks.label_generators(labels, n, p)
                    expect[job] = checks.standard_counts(gens, n)
                if lo <= sum(expect[job]) < hi:
                    break
            else:
                raise RuntimeError(f"no colength in [{lo}, {hi}) for n={n}, p={p}")
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs, expect


def run_betti_koszul(job, api):
    _, n, p, labels = job
    ci = api.ci
    ideal = ci.ideal_from_labels(labels, n, p)
    return ci.koszul_betti(ideal), ci.regularity(ideal), ci.projective_dimension(ideal)


def check_betti_koszul(job, answer, expect):
    n = job[1]
    table, reg, pd = answer
    counts = expect[job]
    errors = checks.check_betti(table.entries, counts, n)
    top = len(counts) - 1
    if pd != n or table.projective_dimension != n:
        errors.append(f"projective dimension {pd}/{table.projective_dimension} != {n}")
    if reg != top or table.regularity != top:
        errors.append(f"regularity {reg}/{table.regularity} != {top}")
    return errors


# ---------------------------------------------------------------------------
# cli_queries: the command line, in process

CONTAINS_JOBS = 16
CONTAINS_BASES = {2: 2**14, 3: 3**9, 5: 5**6}
# (subcommand, jobs per pass): 84 quick queries besides the 16 walks, so the
# 90th percentile of the 100 jobs falls on the sixth shortest walk, clear of
# the quick queries.
CLI_MIX = (
    ("generators", 14),
    ("betti", 12),
    ("reg", 12),
    ("torclass", 8),
    ("purity", 6),
    ("carry", 10),
    ("enumerate", 8),
    ("decompose", 7),
    ("invariant", 7),
)


def _contains_job(rng, k, count):
    """Degree gaps log-spaced over 10^2..10^4 and jittered by 3%, so the cost
    of a pass hardly depends on the seed. p is 2 for the shortest quarter of
    the gaps, 3 for the next and 5 for the longest half, so that the cost
    per degree step (longer patterns for smaller p) keeps the short walks in
    order of gap and the long walks within the time budget. The outer ideal
    starts just above a power of p near 10^4 with carries only in its low
    columns, so the successor walk does not saturate within the gap."""
    p = 2 if 4 * k < count else 3 if 2 * k < count else 5
    gap = round(10 ** (2 + 2 * k / max(count - 1, 1)) * rng.uniform(0.97, 1.03))
    d = CONTAINS_BASES[p] + rng.randrange(p**3)
    low = d % p**3
    b = rng.randint(0, low)
    c = checks.carry((b, d - b), p)
    d2 = d + gap
    if rng.random() < 0.5:
        b2 = rng.randint(0, d2 % p**3)
    else:
        b2 = rng.randint(0, d2)
    c2 = checks.carry((b2, d2 - b2), p)
    return ("cli", "contains", "-n", "2", "-p", str(p), "--outer", f"d={d} c={fmt(c)}",
            "--inner", f"d={d2} c={fmt(c2)}", "--json")


def _two_var_label(rng, lo, hi):
    p = rng.choice((2, 3, 5))
    d = rng.randint(lo, hi)
    return p, d, random_pattern(rng, d, 2, p)


def _cli_job(rng, kind, expect):
    if kind in ("generators", "betti", "reg", "purity"):
        p, d, c = _two_var_label(rng, 100, 500)
        return ("cli", kind, "--label", label_text(2, p, d, c), "--json")
    if kind == "torclass":
        p, d, c = _two_var_label(rng, 30, 60)
        counts = checks.two_var_counts(checks.carry_generators(c, d, 2, p))
        table = checks.euler_betti(counts, 2)
        # position 2 sits wherever the alternating sum is positive past d
        spots = [(1, d)] + [(2, j) for j, v in table.items() if j > d and v > 0]
        i, j = rng.choice(spots)
        return ("cli", kind, "--label", label_text(2, p, d, c), "-i", str(i),
                "-j", str(j), "--json")
    if kind == "carry":
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 4)
        b = tuple(rng.randint(0, 10**6) for _ in range(n))
        return ("cli", kind, "-p", str(p), "-b", ",".join(map(str, b)), "--json")
    if kind == "enumerate":
        n = rng.choice((2, 3))
        p = rng.choice((2, 3, 5))
        d = rng.randint(20, 60 if n == 3 else 300)
        return ("cli", kind, "-n", str(n), "-p", str(p), "-d", str(d), "--json")
    # decompose / invariant read ideal text on stdin
    n = rng.choice((2, 3))
    p = rng.choice((2, 3, 5))
    top = rng.randint(40, 80) if n == 2 else rng.randint(10, 16)
    labels = []
    for _ in range(rng.randint(1, 3)):
        e = top - rng.randint(0, 6)
        labels.append((random_pattern(rng, e, n, p), e))
    gens = checks.label_generators(labels, n, p)
    if kind == "invariant" and rng.random() < 0.5 and len(gens) > 1:
        gens = set(gens)
        gens.discard(rng.choice(sorted(gens)))
        gens = checks.minimal(gens)
    job = ("cli", kind, "-", "--json", "stdin", ideal_text(gens, n, p))
    expect[job] = (n, p, frozenset(gens))
    return job


def make_cli_queries(rng, scale):
    jobs, expect = [], {}
    count = scaled(CONTAINS_JOBS, scale)
    for k in range(count):
        jobs.append(_contains_job(rng, k, count))
    for kind, per_pass in CLI_MIX:
        for _ in range(scaled(per_pass, scale)):
            jobs.append(_cli_job(rng, kind, expect))
    rng.shuffle(jobs)
    return jobs, expect


def split_argv(job):
    """argv and stdin text of a cli job."""
    argv = list(job[1:])
    if "stdin" in argv:
        k = argv.index("stdin")
        return argv[:k], argv[k + 1]
    return argv, None


def run_cli_queries(job, api):
    argv, stdin_text = split_argv(job)
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = api.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _parse_label(text):
    fields = dict(tok.split("=", 1) for tok in text.split())
    c = tuple(int(x) for x in fields["c"].strip("()").split(",") if x)
    return int(fields.get("n", 2)), int(fields["p"]), int(fields["d"]), c


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def check_cli_queries(job, answer, expect):
    code, out = answer
    if code != 0:
        return [f"exit code {code}"]
    argv, _ = split_argv(job)
    kind = argv[0]
    obj = json.loads(out)
    if kind == "contains":
        p = int(_opt(argv, "-p"))
        _, _, d, c = _parse_label(_opt(argv, "--outer") + f" p={p}")
        _, _, d2, c2 = _parse_label(_opt(argv, "--inner") + f" p={p}")
        want = checks.contains(c, d, c2, d2, p)
        return [] if obj["contains"] == want else [f"contains said {obj['contains']}"]
    if kind == "carry":
        p = int(_opt(argv, "-p"))
        b = tuple(int(x) for x in _opt(argv, "-b").split(","))
        return [] if tuple(obj["carry"]) == checks.carry(b, p) else ["wrong carry"]
    if kind == "enumerate":
        n, p, d = (int(_opt(argv, f)) for f in ("-n", "-p", "-d"))
        got = {tuple(c) for c in obj["patterns"]}
        return [] if got == checks.patterns(d, n, p) else ["wrong pattern set"]
    if kind in ("decompose", "invariant"):
        n, p, gens = expect[job]
        if kind == "decompose":
            labels = [(tuple(x["c"]), x["d"]) for x in obj["labels"]]
            rebuilt = checks.label_generators(labels, n, p)
            return [] if rebuilt == set(gens) else ["labels do not rebuild the ideal"]
        if obj["invariant"]:
            return [] if checks.is_invariant(gens, n, p) else ["missed non-invariance"]
        w = obj["witness"]
        return checks.check_witness((w["degree"], w["present"], w["absent"]), gens, p)
    n, p, d, c = _parse_label(_opt(argv, "--label"))
    gens = checks.carry_generators(c, d, n, p)
    if kind == "generators":
        got = {tuple(g) for g in obj["generators"]}
        return [] if got == gens else [f"{len(got)} generators, want {len(gens)}"]
    counts = checks.two_var_counts(gens)
    if kind == "reg":
        top = len(counts) - 1
        return [] if obj["regularity"] == top else [f"regularity {obj['regularity']} != {top}"]
    if kind == "purity":
        want = checks.pure_power(gens, p)
        got = (obj["m"], obj["e"]) if obj["pure"] else None
        return [] if got == want else [f"purity {got} != {want}"]
    if kind == "betti":
        entries = {(i, j): v for i, j, v in obj["formula"]["entries"]}
        errors = checks.check_betti(entries, counts, 2)
        b1 = sum(v for (i, _), v in entries.items() if i == 1)
        b2 = sum(v for (i, _), v in entries.items() if i == 2)
        if b1 != len(gens) or b2 != b1 - 1:
            errors.append(f"beta_1 = {b1}, beta_2 = {b2} for {len(gens)} generators")
        return errors
    # torclass: the class dimension is the Betti number at (i, j)
    i, j = int(_opt(argv, "-i")), int(_opt(argv, "-j"))
    dim = sum(mult * checks.simple_dimension(lam, p) for lam, mult in obj["class"])
    want = len(gens) if i == 1 else checks.euler_betti(counts, 2).get(j, 0)
    return [] if dim == want else [f"class dimension {dim} != beta {want}"]


WORKLOADS = {
    "ideal_build": (make_ideal_build, run_ideal_build, check_ideal_build),
    "betti_koszul": (make_betti_koszul, run_betti_koszul, check_betti_koszul),
    "cli_queries": (make_cli_queries, run_cli_queries, check_cli_queries),
}
