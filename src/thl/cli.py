"""Command-line interface: config ingestion, command dispatch, reporting.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 input or usage error.
"""

import argparse
import functools
import sys
import time
from math import gcd

from .algebra import crossed_product, validate_action, validate_algebra
from .config import load_config, load_fixture
from .crossed import (
    CoinvariantComplex,
    ConjugacyDecomposition,
    GJOperators,
    LambdaComplex,
    PropositionComplex,
    full_pair_check,
    identity_suite,
    theorem_map_f,
)
from .errors import ParseError, ThlError, ValidationError
from .fixtures import fixture_names
from .report import Report, emit_report
from .sequences import SBI_INDEXING_NOTE, DeRhamComplex, karoubi_sequence, sbi_sequence
from .twisted import HKBicomplex, connes_complex


def _params(cfg, command):
    params = [("max_degree", str(cfg.max_degree))]
    if cfg.twist is not None:
        params.append(("twist", cfg.twist))
    if command in ("hc-lambda", "all"):
        params.append(("lambda_coinvariants", "on" if cfg.lambda_coinvariants else "off"))
    return params


def _cyclic_generator(cfg):
    """Index of a generator if the group is cyclic, preferring the
    configured twist element; None otherwise."""
    grp = cfg.group
    r = grp.order
    tw = cfg.twist_index()
    # a stable sort on x != tw: the twist element first, then index order
    for x in sorted(range(r), key=lambda x: x != tw):
        if len({grp.product([x] * k) for k in range(r)}) == r:
            return x
    return None


class _Job:
    """What the steps of one run share: the config, and the operator set and
    complexes built from it, each built on first use and then read by every
    step (their homologies are shared through the complexes)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._twisted = {}
        self._connes = {}

    @functools.cached_property
    def ops(self):
        return GJOperators(self.cfg.algebra, self.cfg.group)

    @functools.cached_property
    def coinvariant(self):
        return CoinvariantComplex(self.ops, self.cfg.max_degree)

    @functools.cached_property
    def decomposition(self):
        return ConjugacyDecomposition(self.coinvariant)

    @functools.cached_property
    def derham(self):
        return DeRhamComplex(self.coinvariant)

    @functools.cached_property
    def proposition(self):
        return PropositionComplex(self.ops, self.cfg.max_degree)

    def twisted(self, elem):
        """The twisted complex of the group element elem."""
        if elem not in self._twisted:
            self._twisted[elem] = HKBicomplex(self.ops.element(elem), self.cfg.max_degree)
        return self._twisted[elem]

    def connes(self, g_coinvariants):
        """The group-indexed Connes complex, divided by the group action or not."""
        if g_coinvariants not in self._connes:
            lam = LambdaComplex(self.ops, self.cfg.max_degree, g_coinvariants)
            self._connes[g_coinvariants] = lam
        return self._connes[g_coinvariants]


def _run_validate(job, report):
    cfg = job.cfg
    validate_algebra(cfg.algebra)
    report.add_check("validate:algebra", True)
    validate_action(cfg.algebra, cfg.group)
    report.add_check("validate:action", True)
    crossed_product(cfg.algebra, cfg.group)
    report.add_check("validate:crossed-product", True)


def _run_hc_twisted(job, report):
    cfg = job.cfg
    tw = cfg.twist_index()
    if tw is None:
        raise ValidationError("hc-twisted needs a twist element (--twist)")
    h = job.twisted(tw).mixed.total_homology()
    report.add_dims(f"hc-twisted[{cfg.twist}]", h.dims)


def _run_hc_crossed(job, report):
    report.add_dims("hc-crossed", job.proposition.mixed.total_homology().dims)


def _run_hc_coinv(job, report):
    report.add_dims("hc-coinv", job.coinvariant.mixed.total_homology().dims)


def _run_hc_lambda(job, report):
    lam = job.connes(job.cfg.lambda_coinvariants)
    report.add_dims("hc-lambda", lam.mixed.column_homology().dims)


def _run_hh_G(job, report):
    report.add_dims("hh-G", job.coinvariant.mixed.column_homology().dims)


def _run_hdr_G(job, report):
    report.add_dims("hdr-G", job.derham.homology().dims)


def _run_verify_identities(job, report):
    bound = job.cfg.max_degree + 1
    for name, ok, detail in identity_suite(job.ops, bound):
        report.add_check(f"identities:{name}", ok, detail or f"p+q<={bound}")
    pair_bound = min(bound, 2)
    for name, ok in full_pair_check(job.ops, pair_bound):
        report.add_check(f"full-pair:{name}", ok, f"p+q<={pair_bound}")


def _run_verify_theorem(job, report):
    cfg = job.cfg
    grp = cfg.group
    deco = job.decomposition
    stalkH = [st.total_homology() for st in deco.stalks]
    coinvH = job.coinvariant.mixed.total_homology()
    report.add_dims("hc-coinv", coinvH.dims)
    for cls_idx, h in enumerate(stalkH):
        rep = deco.conj.representatives[cls_idx]
        report.add_dims(f"hc-stalk[{grp.name(rep)}]", h.dims)
    sums = [sum(h.dims[n] for h in stalkH) for n in range(cfg.max_degree + 1)]
    report.add_check(
        "theorem:stalk-sum",
        sums == coinvH.dims,
        f"sum={sums} coinv={coinvH.dims}",
    )
    gen = _cyclic_generator(cfg)
    if gen is None:
        report.add_skip("theorem:factor-r", "group is not cyclic")
        report.add_skip("theorem:f-injective", "group is not cyclic")
        report.add_skip("theorem:f-onto-summand", "group is not cyclic")
        report.add_skip("corollary1:powers", "group is not cyclic")
        return
    gname = grp.name(gen)
    twH = job.twisted(gen).mixed.total_homology()
    report.add_dims(f"hc-twisted[{gname}]", twH.dims)
    r = grp.order
    expected = [r * d for d in twH.dims]
    report.add_check(
        "theorem:factor-r",
        coinvH.dims == expected,
        f"coinv={coinvH.dims} r*twisted={expected}",
    )
    frep = theorem_map_f(job.twisted(gen), deco, gen)
    detail = " ".join(f"n={d['degree']}:rank={d['rank']}/{d['dim_source']}" for d in frep)
    report.add_check("theorem:f-injective", all(d["injective"] for d in frep), detail)
    detail = " ".join(f"n={d['degree']}:stalk={d['dim_stalk']}" for d in frep)
    report.add_check("theorem:f-onto-summand", all(d["onto_summand"] for d in frep), detail)
    # powers generating the same cyclic group give the same dims
    for k in range(2, r):
        if gcd(k, r) != 1:
            continue
        power = grp.product([gen] * k)
        hk = job.twisted(power).mixed.total_homology()
        report.add_check(
            f"corollary1:power-{k}",
            hk.dims == twH.dims,
            f"{grp.name(power)}:{hk.dims} vs {gname}:{twH.dims}",
        )


def _run_verify_lemma(job, report):
    cfg = job.cfg
    tw = cfg.twist_index()
    elem = tw if tw is not None else cfg.group.identity_index
    gname = cfg.group.name(elem)
    connes = connes_complex(job.ops.element(elem), cfg.max_degree).column_homology().dims
    total = job.twisted(elem).mixed.total_homology().dims
    report.add_dims(f"connes-twisted[{gname}]", connes)
    report.add_dims(f"total-twisted[{gname}]", total)
    report.add_check("lemma:connes-equals-total[twisted]", connes == total)
    if cfg.group.order > 1:
        connes = job.connes(True).mixed.column_homology().dims
        total = job.proposition.mixed.total_homology().dims
        report.add_dims("connes-crossed", connes)
        report.add_dims("total-crossed", total)
        report.add_check("lemma:connes-equals-total[crossed]", connes == total)


def _run_verify_sbi(job, report):
    for node in sbi_sequence(job.coinvariant):
        detail = (
            f"in={node.incoming} out={node.outgoing} "
            f"im={node.image_dim} ker={node.kernel_dim} comp0={node.composite_zero}"
        )
        report.add_check(f"sbi:exact[{node.label}]", node.exact, detail)
    report.add_note(SBI_INDEXING_NOTE)


def _run_verify_karoubi(job, report):
    for node in karoubi_sequence(job.derham, job.connes(True)):
        base = f"n={node.degree} hdr={node.hdr_dim} hc={node.hc_dim} hh={node.hh_next_dim}"
        if node.diagnostic:
            base += f" [{node.diagnostic}]"
        report.add_check(f"karoubi:left-injective[{node.degree}]", node.left_injective, base)
        report.add_check(f"karoubi:composite-zero[{node.degree}]", node.composite_zero, base)
        report.add_check(
            f"karoubi:middle-exact[{node.degree}]",
            node.middle_exact,
            f"{base} left-rank={node.left_rank} middle-ker={node.middle_kernel}",
        )


# command -> step, in the order ``all`` runs them
STEPS = {
    "validate": _run_validate,
    "hc-twisted": _run_hc_twisted,
    "hc-crossed": _run_hc_crossed,
    "hc-coinv": _run_hc_coinv,
    "hc-lambda": _run_hc_lambda,
    "hh-G": _run_hh_G,
    "hdr-G": _run_hdr_G,
    "verify-identities": _run_verify_identities,
    "verify-theorem": _run_verify_theorem,
    "verify-lemma": _run_verify_lemma,
    "verify-sbi": _run_verify_sbi,
    "verify-karoubi": _run_verify_karoubi,
}
COMMANDS = (*STEPS, "all")


def run(command, cfg):
    """Execute a command against a validated config; returns the Report."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    report = Report(cfg.name, command, _params(cfg, command))
    t0 = time.monotonic()
    job = _Job(cfg)
    if command != "all":
        steps = [command]
    elif cfg.twist is None:
        report.add_skip("hc-twisted", "no twist element configured")
        steps = [name for name in STEPS if name != "hc-twisted"]
    else:
        steps = list(STEPS)
    for name in steps:
        STEPS[name](job, report)
    report.timing_seconds = time.monotonic() - t0
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thl",
        description=(
            "Exact-arithmetic twisted and crossed-product cyclic homology "
            "for finite-dimensional Q-algebras."
        ),
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"thl {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--config", help="path to a JSON job file")
    src.add_argument(
        "--fixture",
        choices=fixture_names(),
        help="use a built-in example configuration",
    )
    parser.add_argument("--max-degree", type=int, help="report homology through this degree")
    parser.add_argument("--twist", help="group element for the twisted theory")
    parser.add_argument("--lambda-coinv", choices=["on", "off"],
                        help="divide the Connes complex by the group action")
    parser.add_argument("--format", choices=["human", "machine"], dest="fmt")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.fixture:
            cfg = load_fixture(args.fixture)
        else:
            parser.error("one of --config or --fixture is required")
        if args.max_degree is not None:
            if args.max_degree < 0:
                raise ValidationError("--max-degree must be nonnegative")
            cfg.max_degree = args.max_degree
        if args.twist is not None:
            cfg.twist = args.twist
            cfg.twist_index()  # validates membership
        if args.lambda_coinv is not None:
            cfg.lambda_coinvariants = args.lambda_coinv == "on"
        if args.fmt is not None:
            cfg.format = args.fmt
        report = run(args.command, cfg)
    except (ParseError, ValidationError) as exc:
        print(f"thl: {exc}", file=sys.stderr)
        return 2
    except ThlError as exc:
        print(f"thl: internal check failed: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, cfg.format))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
