"""The builtin scenarios: the paper's 16 figures and 4 tables.

Every figure/table the harness regenerates is declared here as one
:class:`~repro.scenarios.spec.Scenario` object — machines, benchmark,
rank grid, metric extractors, per-machine references with asymmetric
tolerances, and the item's entry in the golden-diff tolerance manifest
(``results/TOLERANCES.json`` is *generated* from these specs, see
:mod:`repro.scenarios.manifest_sync`).

This registry is the only way to name and run a paper item: the
harness CLI, ``repro.run_figure`` / ``run_table``, the service and the
golden gate all look items up here.  Scenarios that share a sweep
(fig01/fig02, fig03/fig04, fig05/table3) go through module-level
``lru_cache`` memos, so running both computes the sweep once.
"""

from __future__ import annotations

from functools import lru_cache

from ..analysis.ratios import TABLE3_UNITS, kiviat_normalise
from ..exec import SimPoint, get_executor
from ..imb import suite as _imb_suite  # noqa: F401 - benchmark registration
from ..imb.framework import PAPER_MSG_BYTES, get_benchmark
from ..machine import PAPER_FIVE, get_machine
from .spec import Reference, Scenario, ToleranceSpec, cap_cpus

#: Machines in the HPCC balance sweeps (Figs 1-4), as in the paper.
HPCC_SWEEP_MACHINES = ("altix_nl4", "altix_nl3", "sx8", "xeon", "opteron")

#: Machines in the IMB figures.
IMB_MACHINES = ("sx8", "x1_msp", "x1_ssp", "altix_nl4", "xeon", "opteron")

#: Largest configuration each system contributes to Fig 5 / Table 3
#: (the paper's text quotes 506/440/576/64 CPU runs).
# NOTE: the paper's Fig 5 / Table 3 use the NUMALINK3 Altix numbers
# (its ring-bandwidth maximum 0.094 B/F equals NL3's 93.8 B/KFlop), so
# the NL4 variant is deliberately absent here.
FLAGSHIP_CPUS = {
    "altix_nl3": 440,
    "sx8": 576,
    "xeon": 512,
    "opteron": 64,
    "x1_ssp": 48,
}

#: fig id -> (benchmark, y field, ylabel) for the IMB figures 6-15.
IMB_FIGURES = {
    "fig06": ("Barrier", "time_us", "time (us/call)"),
    "fig07": ("Allreduce", "time_us", "time (us/call)"),
    "fig08": ("Reduce", "time_us", "time (us/call)"),
    "fig09": ("Reduce_scatter", "time_us", "time (us/call)"),
    "fig10": ("Allgather", "time_us", "time (us/call)"),
    "fig11": ("Allgatherv", "time_us", "time (us/call)"),
    "fig12": ("Alltoall", "time_us", "time (us/call)"),
    "fig13": ("Sendrecv", "bandwidth_mbs", "bandwidth (MB/s)"),
    "fig14": ("Exchange", "bandwidth_mbs", "bandwidth (MB/s)"),
    "fig15": ("Bcast", "time_us", "time (us/call)"),
}

#: Fig 16 axes, all "higher is better", each normalised by its best
#: machine (1 = best), mirroring the Fig 5 kiviat construction.
ENERGY_KIVIAT_COLUMNS = (
    "HPL Gflop/s",
    "Mflop/s per W",
    "Solutions per MJ",    # 1 / energy-to-solution
    "1 / EDP",
)


# ---------------------------------------------------------------------------
# Shared sweeps (memoised: sibling scenarios compute each sweep once)
# ---------------------------------------------------------------------------

def _balance_sweep(kind: str, max_cpus: int | None, **params):
    """(machine -> [(cpus, hpl_tflops, accumulated_GBs)]) via the executor.

    ``kind`` is a worker point kind ("ring_hpl" / "stream_hpl") whose value
    is an (hpl, accumulated) pair; the points for all machines are batched
    into one executor call so a parallel run overlaps everything.
    """
    plan = []
    points = []
    for name in HPCC_SWEEP_MACHINES:
        m = get_machine(name)
        counts = m.cpu_counts(start=4, maximum=cap_cpus(m, max_cpus))
        plan.append((name, counts))
        points.extend(SimPoint.make(kind, name, p, **params) for p in counts)
    values = iter(get_executor().run_points(points))
    return {
        name: [(p, *next(values)) for p in counts]
        for name, counts in plan
    }


@lru_cache(maxsize=8)
def _ring_hpl_sweep(max_cpus: int | None):
    """(machine -> [(cpus, hpl_tflops, accumulated_ring_GBs)])."""
    return _balance_sweep("ring_hpl", max_cpus, n_rings=4)


@lru_cache(maxsize=8)
def _stream_hpl_sweep(max_cpus: int | None):
    """(machine -> [(cpus, hpl_tflops, accumulated_stream_copy_GBs)])."""
    return _balance_sweep("stream_hpl", max_cpus)


@lru_cache(maxsize=8)
def flagship_results(max_cpus: int | None = None):
    """Full HPCC at each machine's largest measured configuration."""
    points = []
    for name, cpus in FLAGSHIP_CPUS.items():
        p = cpus if max_cpus is None else min(cpus, max_cpus)
        points.append(SimPoint.make("hpcc", name, p))
    return tuple(get_executor().run_points(points))


def clear_scenario_caches() -> None:
    """Drop the memoised sweeps (determinism/golden tests re-run them)."""
    _ring_hpl_sweep.cache_clear()
    _stream_hpl_sweep.cache_clear()
    flagship_results.cache_clear()


# Imported *after* the constants above: when this module is the import
# entry point, ``repro.harness.__init__`` pulls ``harness.extended``,
# which re-imports ``IMB_MACHINES`` from this (then partially
# initialised) module — so it must already be bound.
from ..harness.results import FigureResult, FigureSeries, TableResult  # noqa: E402


# ---------------------------------------------------------------------------
# Scenario shapes
# ---------------------------------------------------------------------------

class SweepFigureScenario(Scenario):
    """Figure built from a shared memoised balance sweep (figs 1-4).

    ``run()`` goes through the sweep memo so sibling figures (absolute +
    ratio views of the same sweep) compute their points once;
    :meth:`plan` still reports the underlying fan-out for introspection.
    """

    def __init__(self, scenario_id, *, point_kind, point_params, sweep_fn,
                 build, **kw):
        kw.setdefault("tags", ("paper", "hpcc"))
        super().__init__(scenario_id, **kw)
        self.point_kind = point_kind
        self.point_params = dict(point_params)
        self._sweep_fn = sweep_fn
        self._build = build

    def machine_names(self):
        return HPCC_SWEEP_MACHINES

    def plan(self, max_cpus=None):
        points = []
        for name in HPCC_SWEEP_MACHINES:
            m = get_machine(name)
            counts = m.cpu_counts(start=4, maximum=cap_cpus(m, max_cpus))
            points.extend(SimPoint.make(self.point_kind, name, p,
                                        **self.point_params)
                          for p in counts)
        return points

    def run(self, max_cpus=None):
        return self._build(self._sweep_fn(max_cpus))

    def assemble(self, values, max_cpus=None):
        # Equivalent non-memoised path (used when values were computed
        # directly from plan()); reshapes the flat value list back into
        # the per-machine sweep dict the builder expects.
        it = iter(values)
        data = {}
        for name in HPCC_SWEEP_MACHINES:
            m = get_machine(name)
            counts = m.cpu_counts(start=4, maximum=cap_cpus(m, max_cpus))
            data[name] = [(p, *next(it)) for p in counts]
        return self._build(data)


def _build_fig01(data):
    series = tuple(
        FigureSeries(
            machine=name,
            label=get_machine(name).label,
            x=tuple(h for (_p, h, _v) in pts),
            y=tuple(v for (_p, _h, v) in pts),
        )
        for name, pts in data.items()
    )
    return FigureResult(
        fig_id="fig01",
        title="Accumulated random ring bandwidth vs HPL performance",
        xlabel="HPL (TFlop/s)",
        ylabel="Accumulated random-ring bandwidth (GB/s)",
        series=series,
        extra={"cpu_counts": {n: [p for (p, _h, _v) in pts]
                              for n, pts in data.items()}},
    )


def _build_fig02(data):
    series = []
    for name, pts in data.items():
        xs, ys = [], []
        for p, hpl, acc in pts:
            xs.append(hpl)
            # B/KFlop: accumulated bytes/s per kflop/s of HPL.
            ys.append(acc * 1e9 / (hpl * 1e12 / 1e3))
        series.append(FigureSeries(machine=name,
                                   label=get_machine(name).label,
                                   x=tuple(xs), y=tuple(ys)))
    return FigureResult(
        fig_id="fig02",
        title="Accumulated random ring bandwidth ratio vs HPL performance",
        xlabel="HPL (TFlop/s)",
        ylabel="Ring bandwidth per HPL (B/KFlop)",
        series=tuple(series),
        notes="Paper anchors: SX-8 ~60 flat 128-576 CPUs; Altix NL4 203 in "
              "one box collapsing to 23 at 2024 CPUs; NL3 ~94; Opteron ~24.",
        extra={"cpu_counts": {n: [p for (p, _h, _v) in pts]
                              for n, pts in data.items()}},
    )


def _build_fig03(data):
    series = tuple(
        FigureSeries(
            machine=name,
            label=get_machine(name).label,
            x=tuple(h for (_p, h, _v) in pts),
            y=tuple(v for (_p, _h, v) in pts),
        )
        for name, pts in data.items()
    )
    return FigureResult(
        fig_id="fig03",
        title="Accumulated EP-STREAM Copy vs HPL performance",
        xlabel="HPL (TFlop/s)",
        ylabel="Accumulated STREAM Copy (GB/s)",
        series=series,
    )


def _build_fig04(data):
    series = []
    for name, pts in data.items():
        xs = [h for (_p, h, _v) in pts]
        ys = [v / (h * 1e3) for (_p, h, v) in pts]  # GB/s over GFlop/s
        series.append(FigureSeries(machine=name,
                                   label=get_machine(name).label,
                                   x=tuple(xs), y=tuple(ys)))
    return FigureResult(
        fig_id="fig04",
        title="Accumulated EP-STREAM Copy ratio vs HPL performance",
        xlabel="HPL (TFlop/s)",
        ylabel="STREAM Copy per HPL (Byte/Flop)",
        series=tuple(series),
        notes="Paper anchors: SX-8 > 2.67 B/F; Altix > 0.36; "
              "Opteron 0.84-1.07.",
    )


class KiviatScenario(Scenario):
    """Fig 5: all HPCC results normalised by HPL then by column max."""

    def __init__(self, scenario_id, **kw):
        kw.setdefault("tags", ("paper", "hpcc", "kiviat"))
        super().__init__(scenario_id, **kw)

    def machine_names(self):
        return tuple(FLAGSHIP_CPUS)

    def plan(self, max_cpus=None):
        points = []
        for name, cpus in FLAGSHIP_CPUS.items():
            p = cpus if max_cpus is None else min(cpus, max_cpus)
            points.append(SimPoint.make("hpcc", name, p))
        return points

    def run_with_data(self, max_cpus=None):
        """(FigureResult, KiviatData): the figure plus its kiviat data."""
        results = flagship_results(max_cpus)
        return self._assemble_results(results)

    def run(self, max_cpus=None):
        return self.run_with_data(max_cpus)[0]

    def assemble(self, values, max_cpus=None):
        return self._assemble_results(tuple(values))[0]

    def _assemble_results(self, results):
        data = kiviat_normalise(results)
        series = []
        for m in data.machines:
            row = data.normalised[m]
            xs, ys = [], []
            for i, col in enumerate(data.columns):
                if row[col] is not None:
                    xs.append(float(i))
                    ys.append(row[col])
            series.append(FigureSeries(machine=m, label=get_machine(m).label,
                                       x=tuple(xs), y=tuple(ys)))
        fig = FigureResult(
            fig_id="fig05",
            title="Comparison of all benchmarks normalised with HPL value",
            xlabel="benchmark column index (see analysis.KIVIAT_COLUMNS)",
            ylabel="normalised ratio (best system = 1)",
            series=tuple(series),
            extra={"columns": data.columns, "maxima": data.maxima},
        )
        return fig, data


class IMBFigureScenario(Scenario):
    """One IMB collective/transfer figure across the machine set."""

    def __init__(self, scenario_id, *, benchmark, field, ylabel, **kw):
        kw.setdefault("tags", ("paper", "imb"))
        super().__init__(scenario_id, **kw)
        self.benchmark = benchmark
        self.field = field
        self.ylabel = ylabel
        # Barrier has no payload: its points carry 0 bytes.
        self.msg_bytes = 0 if benchmark == "Barrier" else PAPER_MSG_BYTES

    def machine_names(self):
        return IMB_MACHINES

    def _plan(self, max_cpus):
        min_procs = get_benchmark(self.benchmark).min_procs
        plan = []
        points = []
        for name in IMB_MACHINES:
            m = get_machine(name)
            counts = m.cpu_counts(start=min_procs,
                                  maximum=cap_cpus(m, max_cpus))
            plan.append((m, counts))
            points.extend(
                SimPoint.make("imb", name, p, benchmark=self.benchmark,
                              msg_bytes=self.msg_bytes)
                for p in counts
            )
        return plan, points

    def plan(self, max_cpus=None):
        return self._plan(max_cpus)[1]

    def assemble(self, values, max_cpus=None):
        plan, _points = self._plan(max_cpus)
        it = iter(values)
        series = []
        for m, counts in plan:
            results = [next(it) for _ in counts]
            series.append(FigureSeries(
                machine=m.name,
                label=m.label,
                x=tuple(float(r.nprocs) for r in results),
                y=tuple(getattr(r, self.field) for r in results),
            ))
        size_note = ("" if self.benchmark == "Barrier"
                     else f", {self.msg_bytes} B messages")
        return FigureResult(
            fig_id=self.scenario_id,
            title=f"IMB {self.benchmark} on varying number of "
                  f"processors{size_note}",
            xlabel="CPUs",
            ylabel=self.ylabel,
            series=tuple(series),
        )


class EnergyKiviatScenario(Scenario):
    """Fig 16: analytic energy kiviat (no simulation points)."""

    def __init__(self, scenario_id, **kw):
        kw.setdefault("tags", ("paper", "energy"))
        super().__init__(scenario_id, **kw)

    def machine_names(self):
        from ..analysis.energy import energy_ranking
        return tuple(p.machine for p in energy_ranking())

    def assemble(self, values, max_cpus=None):
        from ..analysis.energy import energy_ranking

        profiles = energy_ranking(nprocs=max_cpus)
        axes = [
            [p.hpl_gflops for p in profiles],
            [p.mflops_per_w for p in profiles],
            [1e6 / p.energy_j for p in profiles],
            [1.0 / p.edp_js for p in profiles],
        ]
        maxima = [max(col) for col in axes]
        series = tuple(
            FigureSeries(
                machine=p.machine,
                label=p.label,
                x=tuple(float(i) for i in range(len(axes))),
                y=tuple(axes[i][j] / maxima[i] for i in range(len(axes))),
            )
            for j, p in enumerate(profiles)
        )
        return FigureResult(
            fig_id="fig16",
            title="Energy efficiency normalised to the best machine (kiviat)",
            xlabel="energy column index (see ENERGY_KIVIAT_COLUMNS)",
            ylabel="normalised ratio (best system = 1)",
            series=series,
            notes="Not in the paper: modelled HPL energy profiles "
                  "(docs/MODEL.md section 13).",
            extra={"columns": list(ENERGY_KIVIAT_COLUMNS),
                   "maxima": {c: maxima[i]
                              for i, c in enumerate(ENERGY_KIVIAT_COLUMNS)}},
        )


class StaticTableScenario(Scenario):
    """A table assembled without simulation points (tables 1, 2, 4)."""

    kind = "table"

    def __init__(self, scenario_id, *, build, **kw):
        kw.setdefault("tags", ("paper",))
        super().__init__(scenario_id, **kw)
        self._build = build

    def assemble(self, values, max_cpus=None):
        return self._build()


class Table3Scenario(Scenario):
    """Table 3: ratio maxima behind the Fig 5 kiviat (shares its sweep)."""

    kind = "table"

    def __init__(self, scenario_id, **kw):
        kw.setdefault("tags", ("paper", "hpcc", "kiviat"))
        super().__init__(scenario_id, **kw)

    def machine_names(self):
        return tuple(FLAGSHIP_CPUS)

    def plan(self, max_cpus=None):
        points = []
        for name, cpus in FLAGSHIP_CPUS.items():
            p = cpus if max_cpus is None else min(cpus, max_cpus)
            points.append(SimPoint.make("hpcc", name, p))
        return points

    def run(self, max_cpus=None):
        return self._assemble_results(flagship_results(max_cpus))

    def assemble(self, values, max_cpus=None):
        return self._assemble_results(tuple(values))

    def _assemble_results(self, results):
        data = kiviat_normalise(results)
        rows = []
        for col in data.columns:
            unit = TABLE3_UNITS[col]
            rows.append((col, f"{data.maxima[col]:.4g}"
                         + (f" {unit}" if unit else "")))
        return TableResult(
            table_id="table3",
            title="Ratio values corresponding to 1 in Fig 5",
            headers=("Ratio", "Maximum value"),
            rows=tuple(rows),
            notes="Paper values: 8.729 TF/s; 1.925; 0.020; 0.039 B/F; "
                  "2.893 B/F; 0.094 B/F; 0.197 1/us; 4.9e-5 Update/F.",
        )


class Table4Scenario(StaticTableScenario):
    """Table 4: analytic energy ranking; exposes energy perf metrics."""

    def machine_names(self):
        from ..analysis.energy import energy_ranking
        return tuple(p.machine for p in energy_ranking())

    def perf_values(self, result):
        # The table rows are formatted strings; references check the
        # underlying analytic profile (always full-scale — table 4 is
        # never capped, so these hold even under --max-cpus).
        from ..analysis.energy import energy_ranking
        return {
            p.machine: {
                "hpl_gflops": p.hpl_gflops,
                "mflops_per_w": p.mflops_per_w,
                "power_kw": p.power_kw,
            }
            for p in energy_ranking()
        }


# ---------------------------------------------------------------------------
# Table builders (tables 1, 2, 4)
# ---------------------------------------------------------------------------

def _build_table1():
    params = get_machine("altix_nl4").extra["table1"]
    return TableResult(
        table_id="table1",
        title="Architecture parameters of SGI Altix BX2",
        headers=("Characteristics", "SGI Altix BX2"),
        rows=tuple((k, v) for k, v in params.items()),
    )


def _build_table2():
    headers = (
        "Platform", "Type", "CPUs/node", "Clock (GHz)", "Peak/node (Gflop/s)",
        "Network", "Network topology", "Operating system", "Location",
        "Processor vendor", "System vendor",
    )
    rows = []
    for m in PAPER_FIVE:
        rows.append((
            m.label,
            m.system_type,
            m.node.cpus,
            m.processor.clock_ghz,
            m.peak_node_gflops,
            m.network.name,
            m.topology_label,
            m.operating_system,
            m.location,
            m.processor_vendor,
            m.system_vendor,
        ))
    return TableResult(
        table_id="table2",
        title="System characteristics of the five computing platforms",
        headers=headers,
        rows=tuple(rows),
    )


def _build_table4():
    from ..analysis.energy import energy_ranking

    headers = ("Rank", "Platform", "CPUs", "HPL (Gflop/s)", "Power (kW)",
               "Mflop/s per W", "Energy (MJ)", "EDP (MJ*s)")
    rows = []
    for rank, prof in enumerate(energy_ranking(), start=1):
        rows.append((
            rank,
            prof.label,
            prof.nprocs,
            f"{prof.hpl_gflops:.4g}",
            f"{prof.power_kw:.4g}",
            f"{prof.mflops_per_w:.4g}",
            f"{prof.energy_j / 1e6:.4g}",
            f"{prof.edp_js / 1e6:.4g}",
        ))
    return TableResult(
        table_id="table4",
        title="Modelled HPL energy efficiency of all simulated machines",
        headers=headers,
        rows=tuple(rows),
        notes="Not in the paper. Sustained HPL at each machine's maximum "
              "CPUs; power = busy cores + per-node memory/NIC floors "
              "(see docs/MODEL.md section 13 for the watt provenance).",
    )


# ---------------------------------------------------------------------------
# The registry entries
# ---------------------------------------------------------------------------

def _imb_scenario(fig_id):
    bench, fld, ylabel = IMB_FIGURES[fig_id]
    refs = {}
    tol = None
    requires_full_refs = True
    if fig_id == "fig06":
        tol = ToleranceSpec(
            rtol=0.02,
            anchors=(("Barrier latency grows ~log P on the scalar clusters",
                      None),))
        refs = {"sx8": {"y_last": Reference(68.0, 0.05, 0.05)}}
    elif fig_id == "fig12":
        tol = ToleranceSpec(
            anchors=(("Alltoall 1MB: IXS crossbar sustains the highest "
                      "per-CPU rate", "sx8"),))
        refs = {"sx8": {"y_last": Reference(679628.32, 0.02, 0.02)}}
    return IMBFigureScenario(
        fig_id, benchmark=bench, field=fld, ylabel=ylabel,
        title=f"IMB {bench} vs CPU count",
        tolerance=tol, references=refs,
        requires_full_refs=requires_full_refs)


def make_builtin_scenarios() -> tuple[Scenario, ...]:
    """Fresh instances of all 20 builtin scenarios, in canonical order."""
    scenarios = [
        SweepFigureScenario(
            "fig01", point_kind="ring_hpl", point_params={"n_rings": 4},
            sweep_fn=_ring_hpl_sweep, build=_build_fig01,
            title="Accumulated random-ring bandwidth vs HPL",
            requires_full_refs=True),
        SweepFigureScenario(
            "fig02", point_kind="ring_hpl", point_params={"n_rings": 4},
            sweep_fn=_ring_hpl_sweep, build=_build_fig02,
            title="Random-ring bandwidth / HPL ratio (B/KFlop)",
            tolerance=ToleranceSpec(
                anchors=(("SX-8 ~60 B/KFlop random-ring balance, flat to "
                          "576 CPUs", "sx8"),)),
            references={
                "sx8": {"y_last": Reference(60.0, 0.06, 0.06)},
                "altix_nl3": {"y_last": Reference(94.0, 0.05, 0.05)},
            },
            requires_full_refs=True),
        SweepFigureScenario(
            "fig03", point_kind="stream_hpl", point_params={},
            sweep_fn=_stream_hpl_sweep, build=_build_fig03,
            title="Accumulated EP-STREAM Copy vs HPL",
            tolerance=ToleranceSpec(
                anchors=(("EP-STREAM per-CPU balance ordering: SX-8 > X1 > "
                          "scalar clusters", None),)),
            references={"sx8": {"y_last": Reference(23616.0, 0.02, 0.02)}},
            requires_full_refs=True),
        SweepFigureScenario(
            "fig04", point_kind="stream_hpl", point_params={},
            sweep_fn=_stream_hpl_sweep, build=_build_fig04,
            title="EP-STREAM Copy / HPL ratio (Byte/Flop)",
            requires_full_refs=True),
        KiviatScenario(
            "fig05", title="All benchmarks normalised with HPL (kiviat)",
            tolerance=ToleranceSpec(
                requires_full=True,
                notes="Kiviat normalisation runs the flagship "
                      "configurations only."),
            references={"sx8": {"y_max": Reference(1.0, 0.0, 0.0)}},
            requires_full_refs=True),
    ]
    scenarios.extend(_imb_scenario(fid) for fid in IMB_FIGURES)
    scenarios.append(EnergyKiviatScenario(
        "fig16", title="Energy efficiency kiviat (modelled)",
        tolerance=ToleranceSpec(
            requires_full=True,
            anchors=(("Blue Gene/P dominates the efficiency axes of the "
                      "energy kiviat", None),),
            notes="Energy kiviat profiles each machine at min(cap, "
                  "max_cpus), so capped runs regenerate different "
                  "profiles; committed values are the full-scale ranking. "
                  "Tier-1 tests regenerate it at full scale (analytic, "
                  "milliseconds); table4 covers the energy surface in "
                  "capped CI runs."),
        references={"bluegene_p": {"y_max": Reference(1.0, 0.0, 0.0)}},
        requires_full_refs=True))
    scenarios.extend([
        StaticTableScenario(
            "table1", build=_build_table1,
            title="Architecture parameters of SGI Altix BX2",
            tolerance=ToleranceSpec(
                mode="exact",
                notes="Static HPCC challenge-class listing; no simulation "
                      "enters it.")),
        StaticTableScenario(
            "table2", build=_build_table2,
            title="System characteristics of the five platforms",
            tolerance=ToleranceSpec(
                mode="exact",
                notes="Machine/topology description table, straight from "
                      "the specs.")),
        Table3Scenario(
            "table3", title="Ratio values corresponding to 1 in Fig 5",
            tolerance=ToleranceSpec(
                requires_full=True,
                anchors=(("SX-8 leads bandwidth-normalised ratios at "
                          "flagship scale", None),),
                notes="Ratio maxima at the flagship configurations "
                      "(440/576/512/64/48 CPUs); a capped run regenerates "
                      "different configurations, so comparison requires "
                      "the full sweep.")),
        Table4Scenario(
            "table4", build=_build_table4,
            title="Modelled HPL energy-efficiency ranking",
            tags=("paper", "energy"),
            tolerance=ToleranceSpec(
                mode="exact",
                anchors=(("Blue Gene/P leads the modelled Mflop/s-per-W "
                          "ranking", None),),
                notes="Fully analytic energy ranking (closed-form HPL + "
                      "PowerModel watts); never capped, so it gates "
                      "exactly even under --max-cpus."),
            references={
                "bluegene_p": {
                    "mflops_per_w": Reference(328.6, 0.005, 0.005),
                    "hpl_gflops": Reference(10599.28, 0.005, 0.005),
                },
                "gige": {"mflops_per_w": Reference(63.32, 0.01, 0.01)},
            }),
    ])
    return tuple(scenarios)


#: Canonical paper item ids, in manifest/harness order.
PAPER_FIGURE_IDS = tuple(f"fig{i:02d}" for i in range(1, 17))
PAPER_TABLE_IDS = ("table1", "table2", "table3", "table4")
