"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 7 performs the real paced 7-day run through the CLI; it is the
slow test of the suite (about ten wall-minutes at clock scale 1000). The run
starts in its own process with the session (``conftest.week_run_child``) and
its test runs last, so the rest of the suite runs while it sleeps.
"""

import csv
import os
import threading
import time

import numpy as np
import pytest

from spmtwin import ems, modbus
from spmtwin.broker import Broker
from spmtwin.cli import EXIT_OK, main
from spmtwin.devices import (
    TRIP_COIL,
    SmartCabinet,
    StorageController,
    TripPlc,
)
from spmtwin.netfabric import ALLOW, DENY, Node, parse_policy, permits
from spmtwin.occupancy import TurnoutModel, building_load
from spmtwin.simcore import LinearStateSpace

STORAGE = dict(A=[[0.0]], B=[[0.12667, -0.14]])
TURBINE = dict(A=[[-0.3076, 0.0], [0.0008, -0.2]],
               B=[[4750.0, 29993.0, -0.1], [1.0, 45.0, 0.2]])


def report(n: int, text: str) -> None:
    print(f"CRITERION {n:02d} PASS: {text}", flush=True)


def test_criterion_01_storage_dynamics():
    start = time.monotonic()
    charge = StorageController(LinearStateSpace(x=[50.0], **STORAGE))
    charge.apply_command("charge")
    charge.advance(100.0)
    assert charge.level_pct == pytest.approx(62.667, abs=1e-6)

    discharge = StorageController(LinearStateSpace(x=[50.0], **STORAGE))
    discharge.apply_command("discharge")
    discharge.advance(100.0)
    assert discharge.level_pct == pytest.approx(36.0, abs=1e-6)
    assert time.monotonic() - start < 1.0
    report(1, "storage 50% -> 62.667% charge / 36.0% discharge over 100 s")


def test_criterion_02_turbine_settling():
    start = time.monotonic()
    u = (1.0, 1.0, 15.0)
    sys = LinearStateSpace(x=[0.0, 15.0], dt=1.0, **TURBINE)
    target = np.linalg.solve(np.array(TURBINE["A"]),
                             -np.array(TURBINE["B"]) @ np.array(u))
    sys.step(u, 30.0)
    for got, want in zip(sys.x, target):
        assert abs(got - want) <= 0.01 * abs(want)

    # independent 1 ms explicit-Euler oracle over the same horizon
    A = np.array(TURBINE["A"])
    B = np.array(TURBINE["B"])
    x = np.array([0.0, 15.0])
    for _ in range(30000):
        x = x + 0.001 * (A @ x + B @ np.array(u))
    for got, want in zip(sys.x, x):
        assert abs(got - want) <= 0.001 * abs(want)
    assert time.monotonic() - start < 1.0
    report(2, "turbine settles to -A^-1 B u within 1% in 30 s; RK4 ~ Euler")


def test_criterion_03_ems_decision_table():
    start = time.monotonic()
    cfg = ems.EmsConfig()

    def tick(solar, load, level):
        return ems.ems_tick(cfg, ems.Measurements(solar, load, level, False))

    assert tick(60, 30, 50) == ems.ActionSet("charge", "stop", False, 0.0)
    assert tick(60, 30, 90) == ems.ActionSet("idle", "stop", True, 0.0)
    assert tick(10, 40, 50) == ems.ActionSet("discharge", "none", False, 0.0)
    assert tick(10, 40, 10) == ems.ActionSet("idle", "stop", False, 30.0)
    assert tick(10, 110, 10) == ems.ActionSet("idle", "start", False, 35.0)

    rng = np.random.default_rng(2024)
    for _ in range(100000):
        solar = float(rng.uniform(0, 500))
        load = float(rng.uniform(0, 500))
        level = float(rng.uniform(0, 100))
        actions = tick(solar, load, level)
        assert actions.storage_mode in ("charge", "discharge", "idle")
        assert actions.turbine_command in ("start", "stop", "none")
        assert not (actions.storage_mode == "charge"
                    and actions.turbine_command == "start")
    assert time.monotonic() - start < 5.0
    report(3, "five EMS branches exact; 1e5 random cases, never charge+start")


def test_criterion_04_trip_protection():
    start = time.monotonic()
    cabinet = SmartCabinet("a", 1500, 10000)
    tripped = []
    plc = TripPlc(scan_period_s=0.1, on_trip=lambda: tripped.append(1))
    clients = [3000.0, 4000.0, 5000.0]  # 13.5 kW > 10 kW max

    sim_t = 0.0
    cabinet.sample(clients)
    sim_t += plc.scan_period_s  # one scan after the overload sample
    plc.scan(cabinet.register_file)
    assert cabinet.register_file.get_coil(TRIP_COIL) is True
    assert tripped == [1]
    assert sim_t <= 0.1

    # trip cuts the clients: the next sample reports at most the base load
    cabinet.sample([])
    assert cabinet.register_file.get_input(100) <= 1500
    assert time.monotonic() - start < 1.0
    report(4, "overload flips coil 100 within one 100 ms scan; next sample <= base")


def test_criterion_05_modbus_conformance():
    golden_read = bytes.fromhex("000100000006010400640002")
    frame = modbus.MbapFrame(1, 1, modbus.read_request(modbus.READ_INPUT, 100, 2))
    assert modbus.encode_frame(frame) == golden_read

    golden_coil_pdu = bytes.fromhex("050064FF00")
    pdu = modbus.write_coil_request(100, True)
    assert bytes([pdu.function_code]) + pdu.payload == golden_coil_pdu

    rng = np.random.default_rng(5)
    fcs = [modbus.READ_COILS, modbus.READ_HOLDING, modbus.READ_INPUT,
           modbus.WRITE_COIL, modbus.WRITE_REGISTER]
    for _ in range(10000):
        txn = int(rng.integers(0, 0x10000))
        unit = int(rng.integers(0, 0x100))
        fc = fcs[int(rng.integers(0, len(fcs)))]
        payload = rng.integers(0, 256, size=int(rng.integers(0, 64)),
                               dtype=np.uint8).tobytes()
        original = modbus.MbapFrame(txn, unit, modbus.Pdu(fc, payload))
        decoded, consumed = modbus.decode_frame(modbus.encode_frame(original))
        assert decoded == original
        assert consumed == 8 + len(payload)
    report(5, "golden read/write frames byte-exact; 1e4 frame round trips")


def test_criterion_06_firewall_policy():
    start = time.monotonic()
    policy = parse_policy([
        {"src": "control", "dst": "field", "verdict": "allow", "priority": 10},
        {"src": "field", "dst": "internet", "verdict": "deny", "priority": 20},
        {"src": "client", "dst": "field", "verdict": "deny", "priority": 20},
    ])
    assert permits(policy, Node("plc", "field"), Node("isp", "internet")) == DENY
    assert permits(policy, Node("ems", "control"), Node("plc", "field")) == ALLOW
    assert permits(policy, Node("pc", "client"), Node("plc", "field")) == DENY
    # default deny with an empty rule set, for every cross-segment pair
    from spmtwin.netfabric import SEGMENTS
    for src in SEGMENTS:
        for dst in SEGMENTS:
            verdict = permits([], Node("s", src), Node("d", dst))
            assert verdict == (ALLOW if src == dst else DENY)
    assert time.monotonic() - start < 1.0
    report(6, "field->internet deny, control->field allow, client->field deny, "
              "default deny")


@pytest.fixture(scope="module")
def week_run(week_run_child):
    child, out, console = week_run_child
    code = child.wait(timeout=20 * 60)
    lines = console.read_text().splitlines()
    assert code == EXIT_OK, lines
    return out, float(lines[-1])


def load_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.slow
def test_criterion_07_week_run(week_run):
    out, wall = week_run
    assert wall <= 15 * 60.0

    solar = [(float(r["timestamp"]), float(r["value"]))
             for r in load_csv(os.path.join(out, "datapoints.csv"))
             if r["xid"] == "DP_solar_power"]
    assert solar
    night = [v for t, v in solar
             if (t % 86400.0) < 3 * 3600.0 or (t % 86400.0) >= 22 * 3600.0]
    assert night and all(v == 0.0 for v in night)
    assert max(v for _, v in solar) <= 80640.0 + 1e-6

    summary = load_csv(os.path.join(out, "summary.csv"))
    weekday = [float(r["consumption_kwh"]) for r in summary
               if int(r["day"]) < 5]
    weekend = [float(r["consumption_kwh"]) for r in summary
               if int(r["day"]) >= 5]
    assert min(weekday) > max(weekend)

    ticks = load_csv(os.path.join(out, "ems_ticks.csv"))
    assert len(ticks) == 604800 // 60 - 1 or len(ticks) == 604800 // 60
    for r in ticks:
        solar_kw = float(r["solar_kw"])
        load_kw = float(r["consumption_kw"])
        charge = float(r["charge_kw"])
        discharge = float(r["discharge_kw"])
        turbine = float(r["turbine_kw"])
        grid = float(r["grid_import_kw"])
        dissipated = float(r["dissipated_kw"])
        residual = (load_kw + charge + dissipated
                    - solar_kw - discharge - turbine - grid)
        assert abs(residual) <= 0.5
        if grid > 0:
            deficit = load_kw - solar_kw
            assert deficit > 0
            assert discharge + turbine < deficit + 1e-9
    report(7, f"7-day paced run in {wall:.0f} s; solar 0 at night, "
              f"peak <= 80.64 kW; weekday > weekend; residual <= 0.5 kW; "
              f"grid only on uncovered deficit")


def test_criterion_08_determinism(scenario_path, tmp_path):
    outs = []
    for i, scale in enumerate((100000, 100000, 333333)):
        out = tmp_path / f"run{i}"
        code = main(["run", scenario_path, "--duration", "7200",
                     "--scale", str(scale), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        outs.append((out / "datapoints.csv").read_bytes())
    assert outs[0] == outs[1]  # same seed, byte-identical
    assert outs[0] == outs[2]  # clock scale does not leak into the data
    report(8, "seed-42 reruns byte-identical; --scale leaves datapoints.csv "
              "unchanged")


def test_criterion_09_turnout():
    model = TurnoutModel(cluster_size=10, base_load_kw=1.5, mu_w=25.0,
                         sigma_w=5.0, schedule=[(0.0, 100.0)])
    exact = building_load(
        TurnoutModel(cluster_size=10, base_load_kw=1.5, mu_w=25.0, sigma_w=0.0,
                     schedule=[(0.0, 100.0)]),
        100, np.random.default_rng(0))
    assert exact == pytest.approx(4.0, abs=1e-12)

    rng = np.random.default_rng(99)
    draws = [building_load(model, 100, rng) for _ in range(10000)]
    analytic = 1.5 + 10 * 10 * 25.0 / 1000.0  # truncation negligible at 5 sigma
    assert np.mean(draws) == pytest.approx(analytic, rel=0.01)
    report(9, "sigma=0 load exactly 4.0 kW at T=100; 1e4-draw mean within 1%")


def test_criterion_10_broker_semantics():
    start = time.monotonic()
    broker = Broker()
    broker.create_thing("FDT:hot", {"f": {"p": 0}})
    sub = broker.subscribe("FDT:hot/f/p", maxlen=32000)

    def writer(worker):
        for i in range(1000):
            rev = broker.put_property("FDT:hot", "f", "p", worker * 1000 + i)
            # read-your-write under the same revision regime
            assert rev >= 1

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    broker.put_property("FDT:hot", "f", "p", -1)
    assert broker.get_property("FDT:hot", "f", "p") == -1  # read-your-write
    events = sub.drain()
    assert [e.revision for e in events] == list(range(1, 16002))  # gap-free
    for prev, cur in zip(events, events[1:]):  # ordered delivery
        assert cur.old == prev.new
    assert time.monotonic() - start < 10.0
    report(10, "read-your-write, gap-free revisions, ordered events under "
               "16 x 1000 concurrent writes")
