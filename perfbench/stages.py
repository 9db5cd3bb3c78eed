"""Traced run of one torelli job, stage by stage, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/stages.py '<job as JSON>'

run.py starts this script; the job is one of its WORKLOADS entries.
From outside the program, it calls each module's public functions in
the order `compute_cohomology`, `oracle_check` or `matching_span_rank`
calls them, with a span around each call, and reads the `lru_cache`
counters of the caches in CACHES before and after. Then it calls the
one-call function a second time, warm, and checks that the composition
gave the same result; otherwise the trace measured another program.

Prints one JSON object: the problems found (empty when the check
passes), the seconds spent after the cold composition ended, the
per-layer metrics it can compute alone, the raw sums run.py needs
for ratios, the spans, and the caches that do not exist.
"""

import json
import sys
import time
from contextlib import contextmanager

import torelli.cli  # noqa: F401  (the same imports as the timed command)
from torelli import branching, characters, invariants, labels, pipeline, setparts, symfunc

# metric prefix -> (module, function, counters reported); a function
# that is gone, or no longer cached, is reported as absent.
CACHES = {
    "symfunc.lr_coefficient": (symfunc, "lr_coefficient", ("misses",)),
    "symfunc.schur_product_table": (symfunc, "_schur_product_table", ("hits", "misses")),
    "symfunc.p_monomial_schur": (symfunc, "_p_monomial_schur", ("misses",)),
    "branching.nl_pair": (branching, "_nl_pair", ("hits", "misses")),
    "branching.skew_schur": (branching, "_skew_schur", ("misses",)),
    "characters.murnaghan_nakayama": (characters, "murnaghan_nakayama", ("hits", "misses")),
}

# Every stage span a job may record; a stage the job never runs reads 0.
STAGE_TIMES = (
    "labels.ch_B", "symfunc.exp_h", "symfunc.omega", "branching.D_series",
    "setparts.quotient_series_by_L", "pipeline.variant_adjust",
    "setparts.sigma_character", "characters.decompose", "invariants.omega_m",
)


class Spans:
    """Spans kept in memory (name, parent name, start, end), and the time
    and cache counters at the end of the cold composition."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.before = cache_counters()
        self.cold_end = None
        self.after = None

    def cold_done(self):
        # Counters cover the cold composition only: the warm call adds hits.
        self.cold_end = time.perf_counter()
        self.after = cache_counters()

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((name, parent, start, end))

    def total(self, name):
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def calls(self, name):
        return sum(1 for n, *_ in self.spans if n == name)


def cache_counters():
    """(hits, misses) of each cache that exists."""
    out = {}
    for prefix, (module, attr, _) in CACHES.items():
        info = getattr(getattr(module, attr, None), "cache_info", None)
        if info is not None:
            stats = info()
            out[prefix] = (stats.hits, stats.misses)
    return out


def cache_metrics(before, after):
    """Counter metrics between two cache_counters() readings, and the
    names of the metrics whose cache does not exist."""
    metrics, absent = {}, []
    for prefix, (_, _, reported) in CACHES.items():
        if prefix not in after:
            absent.extend(f"{prefix}.{what}" for what in reported)
            continue
        hits, misses = (a - b for a, b in zip(after[prefix], before[prefix]))
        delta = {"hits": hits, "misses": misses}
        for what in reported:
            metrics[f"{prefix}.{what}"] = delta[what]
    return metrics, absent


def terms(series):
    """Irreducible or Schur terms summed over the t-degrees of a series."""
    return sum(len(c.coeffs) for c in series.terms.values())


def max_weight(series):
    return max((sum(lam) for c in series.terms.values() for lam in c.coeffs), default=0)


def cohomology(job, tr):
    cfg = pipeline.PipelineConfig(
        two_n=job["dim"], max_degree=job["max_degree"], variant=job["variant"]
    )
    n, epsilon = cfg.n, cfg.epsilon
    with tr.span("cold"):
        with tr.span("labels.ch_B"):
            chb = labels.ch_B(n, cfg.max_degree)
        with tr.span("symfunc.exp_h"):
            pleth = symfunc.exp_h(chb)
        pre_d = pleth
        if n % 2:
            with tr.span("symfunc.omega"):
                pre_d = pleth.map_coefficients(symfunc.omega)
        with tr.span("branching.D_series"):
            post_d = branching.D_series(pre_d, epsilon)
        with tr.span("setparts.quotient_series_by_L"):
            quotiented = setparts.quotient_series_by_L(post_d, n)
        with tr.span("pipeline.variant_adjust"):
            final = pipeline.variant_adjust(quotiented, cfg)
    tr.cold_done()
    with tr.span("warm"):
        table = pipeline.compute_cohomology(cfg)
    problems = []
    entries = tuple(final.coefficient(d) for d in range(cfg.max_degree + 1))
    if table.snapshots["final"] != final or table.entries != entries:
        problems.append("staged cohomology differs from compute_cohomology")
    counts = {
        "labels.ch_B.terms": terms(chb),
        "symfunc.exp_h.terms": terms(pleth),
        "symfunc.exp_h.max_weight": max_weight(pleth),
        "branching.D_series.terms": terms(post_d),
        "pipeline.variant_adjust.terms": terms(final),
    }
    return problems, counts, {"cold_s": tr.total("cold"), "warm_s": tr.total("warm")}


def oracle(job, tr):
    two_n, d_max, q_max = job["dim"], job["dmax"], job["qmax"]
    n = two_n // 2
    cells = []
    with tr.span("cold"):
        with tr.span("labels.ch_B"):
            chb = labels.ch_B(n, d_max)
        with tr.span("symfunc.exp_h"):
            pre_d = symfunc.exp_h(chb)
        pleth = pre_d
        if n % 2:
            with tr.span("symfunc.omega"):
                pre_d = pre_d.map_coefficients(symfunc.omega)
        with tr.span("setparts.quotient_series_by_L"):
            rhs_series = setparts.quotient_series_by_L(pre_d, n)
        for q in range(q_max + 1):
            found = {}
            for d in range(d_max + 1):
                with tr.span("setparts.sigma_character"):
                    chi = setparts.sigma_character(q, n, d, "Pprime")
                with tr.span("characters.decompose"):
                    mults = characters.decompose(chi)
                f = symfunc.SymFunc.zero()
                for lam, m in sorted(mults.items(), key=lambda kv: kv[0].sort_key()):
                    f = f + symfunc.SymFunc.schur(lam) * symfunc.SymFunc.scalar(m)
                if not f.is_zero():
                    found[d] = f
            with tr.span("setparts.quotient_series_by_L"):
                lhs_series = setparts.quotient_series_by_L(symfunc.LambdaSeries(found, d_max), n)
            for d in range(d_max + 1):
                cells.append((q, d, lhs_series.coefficient(d),
                              rhs_series.coefficient(d).homogeneous_part(q)))
    tr.cold_done()
    with tr.span("warm"):
        report = pipeline.oracle_check(two_n, d_max, q_max)
    problems = []
    if [(c.q, c.d, c.lhs, c.rhs) for c in report.cells] != cells:
        problems.append("staged oracle cells differ from oracle_check")
    if not report.ok or any(lhs != rhs for _, _, lhs, rhs in cells):
        problems.append("oracle cells disagree")
    counts = {
        "labels.ch_B.terms": terms(chb),
        "symfunc.exp_h.terms": terms(pleth),
        "symfunc.exp_h.max_weight": max_weight(pleth),
    }
    return problems, counts, {"cold_s": tr.total("cold"), "warm_s": tr.total("warm")}


def exact_rank(rows):
    """Rank over the rationals of sparse rows {column: value}; the
    benchmark's own elimination, to check the program's rank."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {k: v / lead for k, v in row.items()}
                break
            scale = row[col]
            for k, v in pivots[col].items():
                value = row.get(k, 0) - scale * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def nonzero_entries(tensor):
    """{index: value} of a tensor's nonzero entries, stored dense or sparse."""
    entries = tensor.entries
    items = entries.items() if isinstance(entries, dict) else enumerate(entries)
    return {k: v for k, v in items if v}


def rank(job, tr):
    size, g, epsilon = job["set_size"], job["g"], job["epsilon"]
    form = invariants.EpsForm(g, epsilon)
    with tr.span("invariants.perfect_matchings"):
        matchings = invariants.perfect_matchings(range(1, size + 1))
    with tr.span("invariants.omega_m"):
        tensors = [invariants.omega_m(m, form) for m in matchings]
    with tr.span("cold"):
        result = invariants.matching_span_rank(size, g, epsilon)
    tr.cold_done()
    with tr.span("warm"):
        again = invariants.matching_span_rank(size, g, epsilon)
    rows = [nonzero_entries(t) for t in tensors]
    staged = (exact_rank(rows), len(matchings))
    problems = []
    if not (tuple(result) == tuple(again) == staged):
        problems.append(f"matching_span_rank gave {result} then {again}; staged {staged}")
    counts = {
        "invariants.rank.time_s": tr.total("cold") - tr.total("invariants.omega_m"),
        "invariants.matchings": len(matchings),
        "invariants.nonzeros": sum(len(r) for r in rows),
    }
    raw = {
        "cold_s": tr.total("cold"),
        "warm_s": tr.total("warm"),
        "tensor_entries": len(matchings) * (2 * g) ** size,
    }
    return problems, counts, raw


def main():
    job = json.loads(sys.argv[1])
    tr = Spans()
    compose = {"cohomology": cohomology, "oracle": oracle, "rank": rank}[job["kind"]]
    problems, counts, raw = compose(job, tr)
    metrics = {name + ".time_s": tr.total(name) for name in STAGE_TIMES}
    metrics["setparts.sigma_character.calls"] = tr.calls("setparts.sigma_character")
    for key in ("labels.ch_B.terms", "symfunc.exp_h.terms", "symfunc.exp_h.max_weight",
                "branching.D_series.terms", "pipeline.variant_adjust.terms",
                "invariants.rank.time_s", "invariants.matchings", "invariants.nonzeros"):
        metrics[key] = counts.get(key, 0)
    raw.setdefault("tensor_entries", 0)
    counters, absent = cache_metrics(tr.before, tr.after)
    metrics.update(counters)
    print(json.dumps({
        "problems": problems,
        "after_cold_s": time.perf_counter() - tr.cold_end,
        "metrics": metrics,
        "raw": raw,
        "spans": tr.spans,
        "absent": absent,
    }))


if __name__ == "__main__":
    main()
