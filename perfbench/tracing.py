"""Per-layer spans for the traced benchmark run, recorded from outside fieldtopo.

`Tracer.install` replaces the functions of each layer under the names their
callers look up (``fieldtopo.ensemble.generate``, ``scipy.ndimage.label``,
``numpy.fft.fftn``, ...) with wrappers that record a span: name, start, end,
parent span and process.  Spans stay in memory.  A forked pool worker appends
its spans to ``<spool>/<pid>.jsonl`` after each realization, and `gather`
reads them back, so a realization's spans keep the run_ensemble span that
forked the worker as their ancestor.  `layer_samples` turns the span tree
into per-realization, per-mask, per-ensemble and per-repetition samples.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)

#: per-realization sums over descendant spans: metric -> span name
REALIZATION_SUMS = {
    "grf.generate_ms": "grf.generate",
    "grf.smooth_ms": "grf.smooth",
    "grf.sample_moments_ms": "grf.sample_moments",
    "spectrum.eval_power_ms": "spectrum.eval_power",
    "topo2d.excursion_mask_ms": "topo2d.excursion_mask",
    "topo2d.hole_spectrum_ms": "topo2d.hole_spectrum",
    "topo2d.label_ms": "topo2d.label",
    "topo2d.euler_closed_cell_ms": "topo2d.euler_closed_cell",
    "topo3d.betti3d_ms": "topo3d.betti3d",
    "topo3d.label_ms": "topo3d.label",
    "topo3d.euler_closed_cell_ms": "topo3d.euler_closed_cell",
}

#: ndimage.label is one function; its caller decides which layer it belongs to
LABEL_CALLER = {"topo2d.hole_spectrum": "topo2d.label", "topo3d.betti3d": "topo3d.label"}


class Tracer:
    """Span recorder that patches layer functions while installed."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0
        self.patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        if os.getpid() != self.pid:
            # forked worker: drop the parent's finished spans, keep its open stack
            self.pid = os.getpid()
            self.spans = []
        self.count += 1
        span = {
            "id": f"{self.pid}:{self.count}",
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "pid": self.pid,
        }
        self.stack.append(span["id"])
        span["t0"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)
        if span["name"] == "ensemble.realization" and self.pid != self.owner:
            with open(self.spool / f"{self.pid}.jsonl", "a") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in self.spans)
            self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = original(*args, **kwargs)
                if info is not None:
                    span.update(info(args, kwargs, out))
                return out
            finally:
                self._close(span)

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced layer function; undo with `uninstall`."""
        import numpy.fft
        import scipy.fft
        import scipy.ndimage

        import fieldtopo.cli as cli
        import fieldtopo.ensemble as ens
        import fieldtopo.grf as grf
        import fieldtopo.topo3d as topo3d

        self._wrap(cli, "main", "cli.main")
        self._wrap(
            ens, "run_ensemble", "ensemble.run_ensemble",
            lambda a, k, out: {"workers": k.get("workers", a[1] if len(a) > 1 else 1)},
        )
        self._wrap(
            ens, "_realize", "ensemble.realization",
            lambda a, k, out: {"side": a[0].side, "index": a[1]},
        )
        for attr, layer in [
            ("generate", "grf"), ("smooth", "grf"), ("sample_moments", "grf"),
            ("excursion_mask", "topo2d"), ("hole_spectrum", "topo2d"),
            ("euler_closed_cell", "topo2d"), ("betti3d", "topo3d"),
        ]:
            self._wrap(ens, attr, f"{layer}.{attr}")
        self._wrap(grf, "eval_power", "spectrum.eval_power")
        self._wrap(topo3d, "euler_closed_cell", "topo3d.euler_closed_cell")
        self._wrap(scipy.ndimage, "label", "ndimage.label")
        for module in (numpy.fft, scipy.fft):
            for attr in FFT_FUNCTIONS:
                self._wrap(
                    module, attr, "fft",
                    lambda a, k, out, m=module.__name__: {
                        "module": m,
                        "bytes": getattr(a[0], "nbytes", 0) + getattr(out, "nbytes", 0),
                    },
                )
        for attr in ("compute_fits", "duality_check", "normality_trend"):
            self._wrap(ens, attr, "ensemble.fits")
        for attr in ("write_summary_csv", "write_hist_csvs", "write_fits_csv", "write_manifest"):
            self._wrap(ens, attr, "ensemble.write")
        self._wrap(cli, "_write_duality_csv", "ensemble.write")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def gather(self) -> list[dict]:
        """Return and forget every finished span, the workers' spooled ones included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return spans


def _ms(span: dict) -> float:
    return (span["t1"] - span["t0"]) * 1e3


def _self_ms(span: dict, children: list[dict]) -> float:
    """Duration minus the part covered by children running in the same process."""
    covered, end = 0.0, float("-inf")
    for t0, t1 in sorted((c["t0"], c["t1"]) for c in children if c["pid"] == span["pid"]):
        if t1 > end:
            covered += t1 - max(t0, end)
            end = t1
    return _ms(span) - covered * 1e3


def layer_samples(spans: list[dict], table_side: int) -> dict[str, list[float]]:
    """Per-layer samples from one traced repetition's spans.

    Realization metrics use the realizations at ``table_side`` only; mask
    counts are per hole_spectrum or betti3d call; fold and worker occupancy
    are per run_ensemble call; fits, writes and CLI self time per repetition.
    """
    by_id = {s["id"]: s for s in spans}
    kids: dict[str | None, list[dict]] = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
        if s["name"] == "ndimage.label":
            parent = by_id.get(s["parent"], {}).get("name")
            s["name"] = LABEL_CALLER.get(parent, s["name"])

    def below(span: dict) -> list[dict]:
        out, todo = [], list(kids[span["id"]])
        while todo:
            child = todo.pop()
            out.append(child)
            todo.extend(kids[child["id"]])
        return out

    samples: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        name = s["name"]
        if name == "ensemble.realization" and s.get("side") == table_side:
            sub = below(s)
            totals: dict[str, float] = defaultdict(float)
            for c in sub:
                totals[c["name"]] += _ms(c)
            for metric, span_name in REALIZATION_SUMS.items():
                samples[metric].append(totals[span_name])
            ffts = [c for c in sub if c["name"] == "fft" and by_id[c["parent"]]["name"] != "fft"]
            samples["grf.fft_calls"].append(len(ffts))
            samples["grf.fft_mb_computed"].append(sum(c["bytes"] for c in ffts) / 1e6)
            samples["ensemble.realization_ms"].append(_ms(s))
        elif name in LABEL_CALLER:
            label = LABEL_CALLER[name]
            samples[f"{label}_calls"].append(sum(c["name"] == label for c in kids[s["id"]]))
        elif name == "ensemble.run_ensemble":
            real = [c for c in kids[s["id"]] if c["name"] == "ensemble.realization"]
            samples["ensemble.fold_ms"].append(_self_ms(s, kids[s["id"]]))
            busy = sum(_ms(c) for c in real) / (s.get("workers", 1) * _ms(s))
            samples["ensemble.worker_busy_frac"].append(busy)
        elif name == "bench.rep":
            sub = below(s)
            samples["ensemble.fits_ms"].append(sum(_ms(c) for c in sub if c["name"] == "ensemble.fits"))
            samples["ensemble.write_ms"].append(sum(_ms(c) for c in sub if c["name"] == "ensemble.write"))
            samples["ensemble.output_bytes"].append(s.get("output_bytes", 0))
            samples["cli.self_ms"].append(
                sum(_self_ms(c, kids[c["id"]]) for c in sub if c["name"] == "cli.main")
            )
    return dict(samples)
