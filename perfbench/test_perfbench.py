"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import antizeno  # noqa: E402
from antizeno import cli, dynamics, transfer  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert spans.union_length([(-1.0, 0.5), (0.8, 9.0)], 0.0, 1.0) == pytest.approx(0.7)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_parallel_children_never_give_negative_self_time():
    # two children running in parallel cover more than their parent when summed
    span_list = [
        (0, None, "p", 0.0, 1.0, False, None),
        (1, 0, "c", 0.05, 0.95, False, None),
        (2, 0, "c", 0.1, 1.0, False, None),
        (3, 0, "c", 0.2, 0.9, False, None),
    ]
    own = spans.self_times(span_list)
    assert own[0] == pytest.approx(0.05)
    assert all(v >= 0.0 for v in own.values())


def test_parent_span_crosses_the_thread_pool(tracer):
    def child():
        time.sleep(0.05)

    def parent():
        with spans.ContextThreadPool(max_workers=3) as pool:
            for f in [pool.submit(traced_child) for _ in range(3)]:
                f.result()

    traced_child = tracer._wrap("test.child", child)
    traced_parent = tracer._wrap("test.parent", parent)
    tracer.active = True
    traced_parent()
    tracer.active = False
    recorded = list(tracer._spans)
    (root,) = [s for s in recorded if s[2] == "test.parent"]
    kids = [s for s in recorded if s[2] == "test.child"]
    assert len(kids) == 3 and all(s[1] == root[0] for s in kids)
    own = spans.self_times(recorded)
    assert all(v >= 0.0 for v in own.values())
    assert own[root[0]] < 0.05  # the parallel children are subtracted once, as a union


def test_figure2_worker_spans_keep_cli_main_as_parent(tracer, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"scenario": "figure2", "n_points": 5, "out": "%s"}' % (tmp_path / "out"))
    tracer.active = True
    assert cli.main(["--config", str(cfg)]) == 0
    tracer.active = False
    recorded = list(tracer._spans)
    (main,) = [s for s in recorded if s[2] == "cli.main"]
    scans = [s for s in recorded if s[2] == "transfer.tau_scan"]
    writes = [s for s in recorded if s[2] == spans.WRITER]
    assert len(scans) == 4 and len(writes) == 4
    assert all(s[1] == main[0] for s in scans + writes)
    tracer.fold()
    m = tracer.metrics(1)
    assert m["cli.write_csv.calls"] == 4 and m["cli.write_csv.bytes"] > 0
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))


def test_wrappers_reach_every_namespace_and_uninstall_restores(tracer):
    assert transfer.eig_system is dynamics.eig_system
    assert transfer.eig_system.__wrapped__ is not None
    assert cli.scan_to_csv is transfer.scan_to_csv
    m = antizeno.build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
    tracer.active = True
    transfer.tau_scan(m, [0.1, 0.2, 0.3])
    tracer.active = False
    tracer.fold()
    counts = tracer.metrics(1)
    assert counts["transfer.efficiency_measured.calls"] == 3
    assert counts["dynamics.eig_system.calls"] == 3
    tracer.uninstall()
    assert not hasattr(transfer.eig_system, "__wrapped__")
    assert cli.ThreadPoolExecutor is not spans.ContextThreadPool


def test_missing_public_name_is_an_absent_metric(monkeypatch):
    monkeypatch.delattr(transfer, "optimal_tau")
    monkeypatch.delattr(antizeno, "optimal_tau")
    t = spans.Tracer()
    t.install()
    try:
        metrics, absent = run.select(["transfer.optimal_tau.calls", "transfer.tau_scan.calls"], t.metrics(1))
    finally:
        t.uninstall()
    assert absent == ["transfer.optimal_tau.calls"]
    assert metrics == {"transfer.tau_scan.calls": 0.0}


def test_exception_escaping_an_op_counts_as_a_failure(tmp_path):
    def boom(_d):
        raise RuntimeError("could not satisfy the minimum pairwise energy gap")

    op = workloads.Op("disorder", boom, lambda out: None)
    wl = workloads.Workload([op, workloads.lib_op("ok", lambda: 1, lambda out: None)], op)
    rec = worker.run_pass(wl, str(tmp_path))
    assert rec["items"] == 2 and rec["failed"] == 1 and rec["unexpected"] == 1
    assert list(rec["reasons"]) == ["disorder: RuntimeError: could not satisfy the minimum pairwise energy gap"]
    assert list(tmp_path.iterdir()) == []


def test_gate_flags_the_exceptional_point_and_passes_the_fig2_dimer(tmp_path):
    ep = antizeno.build_chain(2, [0.0, 0.0], v=1.0, trap_rate=2.0, decay_rate=0.0)
    with pytest.raises(workloads.GateError, match="eta outside"):
        workloads.check_efficiency(transfer.efficiency_measured(ep, 0.1))
    ok = antizeno.build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)
    workloads.check_efficiency(transfer.efficiency_measured(ok, 0.3))


def test_same_seed_same_inputs():
    a = workloads.measured_scan(7).ops
    b = workloads.measured_scan(7).ops
    c = workloads.measured_scan(8).ops
    assert [o.kind for o in a] == [o.kind for o in b]
    assert sorted(o.kind for o in a) == sorted(o.kind for o in c)
    assert len(a) == 100 and sum(o.may_fail for o in a) == 11


def test_pooled_check_accepts_the_master_equation_itself():
    spec = antizeno.DephasingSpec(workloads._fig3_model(), workloads.FIG3_GAMMA, frozenset({2}))
    rho0 = dynamics.pure_site_state(3, 2)
    pool = [antizeno.quantum_jump_ensemble(spec, rho0, workloads.FIG3_TIMES, n_traj=400, seed=s) for s in range(2)]
    workloads.pooled_check(pool, spec, rho0, workloads.FIG3_TIMES)()
    assert pool == []
    biased = [antizeno.quantum_jump_ensemble(spec, rho0, workloads.FIG3_TIMES, n_traj=400, seed=0)]
    object.__setattr__(biased[0], "mean_populations", np.clip(biased[0].mean_populations + 0.05, 0, 1))
    with pytest.raises(workloads.GateError, match="pooled ensemble"):
        workloads.pooled_check(biased, spec, rho0, workloads.FIG3_TIMES)()
