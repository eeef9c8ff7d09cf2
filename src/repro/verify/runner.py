"""Grid driver for the verification oracle.

Verifies ``app × scheme × nprocs`` coordinates at a small problem size:
the grid is enumerated by the shared
:class:`~repro.pipeline.grid.GridSpec` engine, each point builds the
app, compiles it through a
:class:`~repro.pipeline.session.CompileSession` (so artifacts are shared
across the grid exactly like a real run) and hands the plan to
:func:`~repro.verify.oracle.verify_spmd`.  A point that fails to
*compile* is reported as a failed point rather than aborting the grid.

Give :func:`verify_grid` a persistent
:class:`~repro.pipeline.store.ResultStore` and previously-verified
points are served from it under their content-addressed ``verify`` key
(program x scheme x procs x machine x model version): a warm
``repro verify --incremental`` rerun executes no oracle work at all.
Only *ok* verdicts are stored — a failure always re-runs live so its
divergence trace is fresh.
"""

from __future__ import annotations

import traceback
from typing import List, Optional, Sequence

from repro.verify.oracle import VerifyResult, verify_spmd

__all__ = [
    "DEFAULT_VERIFY_N",
    "DEFAULT_VERIFY_PROCS",
    "verify_point",
    "verify_grid",
    "grid_ok",
    "format_verify_table",
]

DEFAULT_VERIFY_N = 8
DEFAULT_VERIFY_PROCS = (1, 2, 4)


def verify_point(
    app: str,
    scheme,
    nprocs: int,
    n: Optional[int] = DEFAULT_VERIFY_N,
    time_steps: Optional[int] = None,
    session=None,
) -> VerifyResult:
    """Compile one (app, scheme, nprocs) point at a small size and run
    the oracle on it.  Compile failures become failed results."""
    from repro.apps import build_app
    from repro.codegen.spmd import parse_scheme
    from repro.pipeline.session import CompileSession

    scheme = parse_scheme(scheme)
    try:
        prog = build_app(app, n=n, time_steps=time_steps)
        session = session or CompileSession()
        spmd = session.compile(prog, scheme, nprocs)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        return VerifyResult(
            program=app,
            scheme=scheme.value,
            nprocs=nprocs,
            ok=False,
            reason="compile failed: "
            + traceback.format_exc(limit=5).strip().splitlines()[-1],
        )
    return verify_spmd(spmd, prog)


def verify_grid(
    apps: Sequence[str],
    schemes: Sequence,
    procs: Sequence[int] = DEFAULT_VERIFY_PROCS,
    n: Optional[int] = DEFAULT_VERIFY_N,
    time_steps: Optional[int] = None,
    session=None,
    store=None,
) -> List[VerifyResult]:
    """Run the oracle over the full cartesian grid, sharing one compile
    session so restructure/decompose artifacts are reused.

    With a ``store``, each point's verdict is looked up under its
    ``verify`` key first and ok verdicts are written back — verified
    points whose program/machine/model key is unchanged are served
    without re-running the oracle.  The key includes the oracle's own
    version, so an edit to ``repro/verify`` re-verifies every point.
    """
    from repro.codegen.spmd import parse_scheme
    from repro.pipeline.grid import GridSpec, point_key
    from repro.pipeline.passes import VerifyPass
    from repro.pipeline.session import CompileSession

    session = session or CompileSession()
    spec = GridSpec(
        apps=tuple(apps),
        schemes=tuple(getattr(s, "value", s) for s in schemes),
        procs=tuple(procs),
        n=n, time_steps=time_steps,
    )
    results: List[VerifyResult] = []
    for point in spec.points():
        scheme_name = parse_scheme(point.scheme).value
        key = None
        if store is not None:
            try:
                key = point_key(point, kind="verify",
                                oracle=VerifyPass.version)
            except Exception:
                # An unbuildable point cannot be keyed; verify_point
                # below reports the compile failure as a failed result.
                key = None
        if key is not None:
            payload = store.get(key)
            if payload is not None:
                results.append(VerifyResult(
                    program=point.app,
                    scheme=scheme_name,
                    nprocs=point.nprocs,
                    ok=True,
                    phases_checked=int(payload.get("phases_checked", 0)),
                    elements_checked=int(
                        payload.get("elements_checked", 0)),
                ))
                continue
        result = verify_point(point.app, point.scheme, point.nprocs,
                              n=point.n, time_steps=point.time_steps,
                              session=session)
        if key is not None and result.ok:
            store.put(key, {
                "phases_checked": result.phases_checked,
                "elements_checked": result.elements_checked,
            }, coord=f"verify:{point.coord()}")
        results.append(result)
    return results


def grid_ok(results: Sequence[VerifyResult]) -> bool:
    return bool(results) and all(r.ok for r in results)


def format_verify_table(results: Sequence[VerifyResult],
                        title: str = "semantic verification") -> str:
    """Fixed-width report, one line per grid point."""
    lines = [title]
    lines.append(
        f"{'app':12s} {'scheme':28s} {'P':>3s} {'phases':>7s} "
        f"{'elements':>9s}  status"
    )
    for r in results:
        status = "ok" if r.ok else "FAIL — " + (
            r.reason or (r.divergence.describe() if r.divergence else "?")
        )
        lines.append(
            f"{r.program:12s} {r.scheme:28s} {r.nprocs:3d} "
            f"{r.phases_checked:7d} {r.elements_checked:9d}  {status}"
        )
    nfail = sum(1 for r in results if not r.ok)
    lines.append(
        f"{len(results)} points, {len(results) - nfail} ok, {nfail} failed"
    )
    return "\n".join(lines)
