"""Typed compiler passes with declared inputs/outputs and cache keys.

The paper's compiler is a staged pipeline; each stage is a
:class:`Pass` here:

========================  =======================  ====================
pass                      inputs                   output artifact
========================  =======================  ====================
:class:`RestructurePass`  ``program``              ``program.restructured``
:class:`DecomposePass`    ``program.restructured`` ``decomposition``
:class:`LayoutPass`       restructured + decomp    ``layout``
:class:`SpmdCodegenPass`  all of the above         ``spmd``
========================  =======================  ====================

Each pass carries a ``version`` string that participates in its cache
key: a digest of the sources of the package that implements it
(:func:`~repro.pipeline.fingerprint.source_version`), so editing a pass
implementation invalidates exactly its own (and downstream) cached
artifacts, and :func:`compiler_version` folds the versions into every
stored result's key.  Keys are content-addressed: they start
from the fingerprint of the *source* program handed to the session, so
any two structurally identical programs share artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.obs.provenance import ProvenanceLog
from repro.codegen.spmd import Scheme, derive_program_layout, generate_spmd
from repro.decomp.folding import grid_shape
from repro.decomp.greedy import decompose_program
from repro.ir.program import Program
from repro.pipeline.fingerprint import make_key, source_version

__all__ = [
    "ART_PROGRAM",
    "ART_RESTRUCTURED",
    "ART_DECOMPOSITION",
    "ART_LAYOUT",
    "ART_SPMD",
    "ART_VERIFY",
    "PassContext",
    "Pass",
    "RestructurePass",
    "DecomposePass",
    "LayoutPass",
    "SpmdCodegenPass",
    "VerifyPass",
    "ALL_PASSES",
    "compiler_version",
]

# Artifact kind names (the vocabulary of Pass.inputs / Pass.output).
ART_PROGRAM = "program"
ART_RESTRUCTURED = "program.restructured"
ART_DECOMPOSITION = "decomposition"
ART_LAYOUT = "layout"
ART_SPMD = "spmd"
ART_VERIFY = "verify.report"

_REPRO = Path(__file__).resolve().parent.parent


def _package_version(package: str) -> str:
    """The version of a pass implemented by ``repro/<package>``."""
    return source_version(_REPRO / package, f"{package}-")


@dataclass
class PassContext:
    """Everything one compile point's passes can see.

    ``decomp_token`` distinguishes the provenance of the decomposition
    for downstream keys: ``"auto"`` when the pipeline derives it (then
    ``program_fp + decomp_nprocs + max_dims`` pin it down) or the
    fingerprint of an externally supplied one (e.g. HPF directives).
    """

    program: Program
    program_fp: str
    scheme: Optional[Scheme] = None
    nprocs: int = 1
    decomp_nprocs: int = 1
    max_dims: int = 2
    line_pad_elements: Optional[int] = None
    decomp_token: str = "auto"
    artifacts: Dict[str, Any] = field(default_factory=dict)
    # Decision records accumulated across this point's passes, in pass
    # order; cache hits replay the original run's records (see
    # repro.obs.provenance).  Not part of any cache key.
    provenance: ProvenanceLog = field(default_factory=ProvenanceLog)

    def require(self, kind: str) -> Any:
        try:
            return self.artifacts[kind]
        except KeyError:
            raise KeyError(
                f"pass input artifact {kind!r} not present; ran passes "
                f"out of order?"
            ) from None


class Pass:
    """One pipeline stage.

    Subclasses declare ``name``/``version``/``inputs``/``output`` and
    implement :meth:`run`; :meth:`cache_key` derives the
    content-addressed key (``None`` opts the pass out of caching).
    """

    name: str = "pass"
    version: str = "1"
    inputs: Tuple[str, ...] = ()
    output: str = ""

    def cache_key(self, ctx: PassContext) -> Optional[str]:
        raise NotImplementedError

    def run(self, ctx: PassContext) -> Any:
        raise NotImplementedError


class RestructurePass(Pass):
    """Section 3.2 preprocessing: unimodularly restructure every nest to
    expose the largest outermost parallel band.  Scheme-independent."""

    name = "restructure"
    version = _package_version("analysis")
    inputs = (ART_PROGRAM,)
    output = ART_RESTRUCTURED

    def cache_key(self, ctx: PassContext) -> str:
        return make_key(("pass", self.name, self.version, ctx.program_fp))

    def run(self, ctx: PassContext) -> Program:
        from repro.analysis.unimodular import expose_outer_parallelism

        prog = ctx.program
        nests = []
        with obs.span("compiler.restructure", cat="compiler",
                      program=prog.name):
            for nest in prog.nests:
                with obs.span("unimodular.nest", cat="compiler",
                              nest=nest.name) as sp:
                    res = expose_outer_parallelism(nest, prog.params)
                    sp.set(
                        transformed=res.nest is not nest,
                        outer_parallel=res.outer_parallel_count,
                    )
                    nests.append(res.nest)
        return Program(
            name=prog.name,
            arrays=dict(prog.arrays),
            nests=nests,
            params=dict(prog.params),
            time_steps=prog.time_steps,
        )


class DecomposePass(Pass):
    """Section 3's global computation/data decomposition (greedy
    algorithm).  Keyed on ``decomp_nprocs`` — the folding choice is the
    only processor-count-dependent part — so a sweep that pins the
    decomposition at one processor count shares a single artifact."""

    name = "decompose"
    version = _package_version("decomp")
    inputs = (ART_RESTRUCTURED,)
    output = ART_DECOMPOSITION

    def cache_key(self, ctx: PassContext) -> str:
        return make_key((
            "pass", self.name, self.version, ctx.program_fp,
            str(ctx.decomp_nprocs), str(ctx.max_dims),
        ))

    def run(self, ctx: PassContext):
        rprog = ctx.require(ART_RESTRUCTURED)
        return decompose_program(rprog, ctx.decomp_nprocs,
                                 max_dims=ctx.max_dims)


class LayoutPass(Pass):
    """Section 4's data transformation: derive each distributed array's
    (possibly strip-mined + permuted) layout.  Only meaningful for the
    decomposition schemes; BASE keeps identity layouts."""

    name = "layout"
    version = _package_version("datatrans")
    inputs = (ART_RESTRUCTURED, ART_DECOMPOSITION)
    output = ART_LAYOUT

    def cache_key(self, ctx: PassContext) -> str:
        restructure = ctx.scheme is Scheme.COMP_DECOMP_DATA
        return make_key((
            "pass", self.name, self.version, ctx.program_fp,
            str(ctx.nprocs), ctx.decomp_token, str(ctx.decomp_nprocs),
            str(ctx.max_dims), str(restructure),
            str(ctx.line_pad_elements),
        ))

    def run(self, ctx: PassContext):
        rprog = ctx.require(ART_RESTRUCTURED)
        decomp = ctx.require(ART_DECOMPOSITION)
        restructure = ctx.scheme is Scheme.COMP_DECOMP_DATA
        grid = grid_shape(ctx.nprocs, decomp.rank)
        return derive_program_layout(
            rprog, decomp, grid,
            restructure=restructure,
            line_pad_elements=(
                ctx.line_pad_elements if restructure else None
            ),
        )


class SpmdCodegenPass(Pass):
    """SPMD plan generation for one (scheme, nprocs) point."""

    name = "spmd"
    version = _package_version("codegen")
    inputs = (ART_RESTRUCTURED, ART_DECOMPOSITION, ART_LAYOUT)
    output = ART_SPMD

    def cache_key(self, ctx: PassContext) -> str:
        return make_key((
            "pass", self.name, self.version, ctx.program_fp,
            ctx.scheme.value, str(ctx.nprocs), ctx.decomp_token,
            str(ctx.decomp_nprocs), str(ctx.max_dims),
            str(ctx.line_pad_elements),
        ))

    def run(self, ctx: PassContext):
        rprog = ctx.require(ART_RESTRUCTURED)
        if ctx.scheme is Scheme.BASE:
            return generate_spmd(rprog, Scheme.BASE, ctx.nprocs)
        return generate_spmd(
            rprog, ctx.scheme, ctx.nprocs,
            decomp=ctx.require(ART_DECOMPOSITION),
            transformed=ctx.artifacts.get(ART_LAYOUT),
            line_pad_elements=ctx.line_pad_elements,
        )


class VerifyPass(Pass):
    """Optional semantic oracle stage: executes the SPMD plan and the
    untransformed source program in lockstep and raises
    :class:`~repro.errors.VerifyError` on the first diverging element.
    Never cached — when enabled it must actually run, even on a
    fully-cached compile, because *it* is the guardrail."""

    name = "verify"
    version = _package_version("verify")
    inputs = (ART_PROGRAM, ART_SPMD)
    output = ART_VERIFY

    def cache_key(self, ctx: PassContext) -> Optional[str]:
        return None

    def run(self, ctx: PassContext):
        from repro.verify import verify_spmd

        result = verify_spmd(ctx.require(ART_SPMD), ctx.program)
        return result.raise_on_failure()


ALL_PASSES = (RestructurePass, DecomposePass, LayoutPass, SpmdCodegenPass,
              VerifyPass)


def compiler_version() -> str:
    """The compiler's part of a result key: the current versions of the
    passes whose artifacts a result is computed from.  Applications are
    left out; the program fingerprint already covers them."""
    passes = (RestructurePass, DecomposePass, LayoutPass, SpmdCodegenPass)
    return "cc-" + make_key(p.version for p in passes)[:16]
