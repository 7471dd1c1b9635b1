"""Micro-benchmarks of the hot primitives: the poll path (one host's poll,
one full poll instant into a list and into a sample sink, a Modbus read on the general path and on a prepared
request), model stepping at rest and computed, one scheduler event,
seeding the generator and drawing a cluster's load, broker writes and
reads, the EMS decision, an operator's coil and broker commands through a
built runner, and a twin's set-up: reading the radiance year and building a
runner of the shipped scenario.

Each bench times one hot primitive with a fixed, small number of rounds (no
calibration), so the file stays fast inside the normal test run, and asserts
the primitive's result. Compare two revisions with::

    pytest tests/test_microbench.py --benchmark-only --benchmark-autosave
    # ...change the code...
    pytest tests/test_microbench.py --benchmark-only --benchmark-compare
"""

import heapq
import itertools
import os

import pytest

from spmtwin import modbus
from spmtwin.broker import Broker, BrokerRequest
from spmtwin.devices import MASTER_COIL
from spmtwin.ems import IDLE, START, ActionSet, EmsConfig, Measurements, ems_tick
from spmtwin.historian import (BrokerSource, Datapoint, Historian,
                               ModbusSource, SampleSink)
from spmtwin.netfabric import Fabric
from spmtwin.occupancy import TurnoutModel
from spmtwin.rng import Generator
from spmtwin.runner import PHASE_CONTROLLER, Runner
from spmtwin.scenario import load_scenario, parse_policy
from spmtwin.simcore import LinearStateSpace, interpolate, load_radiance_csv

ROUNDS = 20
ITERATIONS = 50
HOSTS = 60


def campus_historian() -> Historian:
    """A historian of 4 broker points and one Modbus point on each of 60
    hosts, every read a constant."""
    registers = {f"cab-{i:03d}": 1000 + i for i in range(HOSTS)}
    hist = Historian(read_broker=lambda thing, feature, prop: 1.0,
                     bind_modbus=lambda host, unit, table, addr:
                         lambda: registers[host],
                     write_broker=lambda thing, feature, prop, value: None,
                     write_modbus_coil=lambda host, unit, addr, on: None)
    for i in range(4):
        hist.register(Datapoint(xid=f"DP_broker_{i}", name="x",
                                source=BrokerSource("FDT:t", "f", f"p{i}")))
    for host in registers:
        hist.register(Datapoint(xid=f"DP_{host}", name="x",
                                source=ModbusSource(host, 1, "input", 100)))
    return hist


def test_poll_host_on_60_hosts(benchmark):
    hist = campus_historian()
    clock = itertools.count(1)
    last = [0.0]

    def poll():
        last[0] = float(next(clock))
        return hist.poll_host("cab-030", last[0])

    assert benchmark.pedantic(poll, rounds=ROUNDS, iterations=ITERATIONS) == 1
    assert len(hist.log) == last[0] >= ROUNDS * ITERATIONS
    assert hist.get_latest("DP_cab-030") == (last[0], 1030.0)


def test_poll_instant_on_60_hosts(benchmark):
    # the poll phase of one instant: every sourced point, in one pass
    hist = campus_historian()
    clock = itertools.count(1)
    last = [0.0]

    def poll():
        last[0] = float(next(clock))
        return hist.poll_sourced(last[0])

    assert benchmark.pedantic(poll, rounds=ROUNDS,
                              iterations=ITERATIONS) == HOSTS + 4
    assert len(hist.log) == (HOSTS + 4) * last[0]
    assert last[0] >= ROUNDS * ITERATIONS
    assert hist.get_latest("DP_cab-059") == (last[0], 1059.0)
    assert hist.log[-1] == (last[0], "DP_cab-059", 1059.0)


def test_poll_instant_into_a_sample_sink(benchmark):
    # as in a run: the pass hands its rows to a SampleSink in one extend
    hist = campus_historian()
    hist.log = SampleSink(os.devnull)
    clock = itertools.count(1)
    last = [0.0]

    def poll():
        last[0] = float(next(clock))
        return hist.poll_sourced(last[0])

    try:
        assert benchmark.pedantic(poll, rounds=ROUNDS,
                                  iterations=ITERATIONS) == HOSTS + 4
        assert len(hist.log) == (HOSTS + 4) * last[0]
        assert last[0] >= ROUNDS * ITERATIONS
    finally:
        hist.log.close()


def test_deliver_on_kept_route(benchmark):
    fabric = Fabric(parse_policy([
        {"src": "control", "dst": "field", "verdict": "allow", "priority": 10},
        {"src": "field", "dst": "internet", "verdict": "deny", "priority": 20},
        {"src": "client", "dst": "field", "verdict": "deny", "priority": 20},
    ]))
    fabric.attach("scada", "control")
    fabric.attach("cab-a", "field")
    fabric.register_handler("cab-a", "modbus", lambda payload: payload)
    fabric.deliver("scada", "cab-a", "modbus", b"")     # keep the route

    calls = itertools.count(1)
    last = [0]

    def deliver():
        last[0] = next(calls)
        return fabric.deliver("scada", "cab-a", "modbus", b"req")

    assert benchmark.pedantic(deliver, rounds=ROUNDS,
                              iterations=ITERATIONS) == b"req"
    assert fabric.delivered_count == 1 + last[0]
    assert last[0] >= ROUNDS * ITERATIONS
    assert fabric.blocked_count == 0


def test_modbus_read_round_trip(benchmark, monkeypatch):
    # the general path: with no room for prepared requests, every request
    # is decoded, executed and encoded
    monkeypatch.setattr(modbus, "_prepared", {})
    monkeypatch.setattr(modbus, "PREPARED_READS", 0)
    rf = modbus.RegisterFile()
    rf.set_input(100, 1234)

    def round_trip():
        request = modbus.encode_frame(modbus.MbapFrame(
            1, 1, modbus.read_request(modbus.READ_INPUT, 100, 1)))
        response, _ = modbus.decode_frame(modbus.serve_frame_bytes(rf, request))
        return modbus.parse_read_registers_response(response.pdu)

    assert benchmark.pedantic(round_trip, rounds=ROUNDS,
                              iterations=ITERATIONS) == [1234]
    assert modbus._prepared == {}


def test_modbus_prepared_read_round_trip(benchmark):
    # the poll as the runner makes it: cached request bytes, a prepared
    # request on the server, the reply's header checked and its value
    # unpacked; test_modbus_read_round_trip is the general path
    rf = modbus.RegisterFile()
    rf.set_input(100, 1234)
    request = modbus.encode_frame(modbus.MbapFrame(
        1, 1, modbus.read_request(modbus.READ_INPUT, 100, 1)))
    header = modbus.read_reply_header(1, 1, modbus.READ_INPUT)
    modbus.serve_frame_bytes(rf, request)       # prepares the request
    assert request in modbus._prepared

    def round_trip():
        raw = modbus.serve_frame_bytes(rf, request)
        if len(raw) == 11 and raw[:9] == header:
            return modbus.U16.unpack_from(raw, 9)[0]
        return None

    assert benchmark.pedantic(round_trip, rounds=ROUNDS,
                              iterations=ITERATIONS) == 1234


def test_execute_single_input_register_read(benchmark):
    rf = modbus.RegisterFile()
    rf.set_input(100, 1234)
    request = modbus.read_request(modbus.READ_INPUT, 100, 1)
    reply = benchmark.pedantic(modbus.execute, args=(rf, request),
                               rounds=ROUNDS, iterations=ITERATIONS)
    assert reply == modbus.Pdu(modbus.READ_INPUT, b"\x02\x04\xd2")


def test_decode_frame(benchmark):
    pdu = modbus.Pdu(modbus.READ_INPUT, b"\x02\x04\xd2")
    raw = modbus.encode_frame(modbus.MbapFrame(1, 1, pdu))
    frame, consumed = benchmark.pedantic(modbus.decode_frame, args=(raw,),
                                         rounds=ROUNDS, iterations=ITERATIONS)
    assert consumed == len(raw) == 11
    assert frame == modbus.MbapFrame(1, 1, pdu)


def turbine() -> LinearStateSpace:
    """The plant's turbine, stopped and cold."""
    return LinearStateSpace(A=[[-0.3076, 0.0], [0.0008, -0.2]],
                            B=[[4750.0, 29993.0, -0.1], [1.0, 45.0, 0.2]],
                            x=[0.0, 15.0], dt=1.0)


def test_turbine_step(benchmark):
    # the plant's turbine, valves open, one 10 s controller publish per step;
    # it settles to an exact fixed point within tens of steps, so after
    # settling this times the rest path, and test_turbine_step_computed the
    # propagator's
    system = turbine()
    u = (1.0, 1.0, 15.0)
    x = benchmark.pedantic(system.step, args=(u, 10.0), rounds=ROUNDS,
                           iterations=ITERATIONS)
    # 1,000 steps are 10,000 s: far past the 30 s settling time
    assert x == pytest.approx(system.steady_state(u), rel=1e-9)


def test_turbine_step_at_rest(benchmark):
    # the turbine as it is all day on the reference plant: stopped, at rest
    system = turbine()
    stop = (0.0, 0.0, 15.0)
    for _ in range(100):
        system.step(stop, 10.0)
    rest = list(system.x)
    system._propagator = None       # a computed step would fail
    x = benchmark.pedantic(system.step, args=(stop, 10.0), rounds=ROUNDS,
                           iterations=ITERATIONS)
    assert x == system.x == rest and x is not system.x


def test_turbine_step_computed(benchmark):
    # starting and stopping every step: never at rest, each step computed
    system = turbine()
    inputs = itertools.cycle([(1.0, 1.0, 15.0), (0.0, 0.0, 15.0)])

    def step():
        return system.step(next(inputs), 10.0)

    x = benchmark.pedantic(step, rounds=ROUNDS, iterations=ITERATIONS)
    assert system._rest is None and x == system.x
    assert 0.0 < x[0] < system.steady_state((1.0, 1.0, 15.0))[0]


def test_scheduler_event_of_no_op_members(benchmark, scenario_path):
    # one event of a periodic group as the run loop makes it: pop it,
    # advance the clock, run the members (three no-ops) and re-arm the group
    runner = Runner(load_scenario(scenario_path), pace=False)
    runner._schedule_periodic([(10.0, PHASE_CONTROLLER, lambda t: None)] * 3)
    heap, clock = runner._heap, runner.clock

    def event():
        t, _, _, fn = heapq.heappop(heap)
        clock.advance_to(t)
        fn(t)
        return t

    t = benchmark.pedantic(event, rounds=ROUNDS, iterations=ITERATIONS)
    assert t == clock.now() >= 10.0 * ROUNDS * ITERATIONS
    assert [e[0] for e in heap] == [t + 10.0]


def test_generator_seed(benchmark):
    rng = benchmark.pedantic(Generator, args=(42,), rounds=ROUNDS,
                             iterations=ITERATIONS)
    assert rng.normal(25.0, 5.0) == Generator(42).normal(25.0, 5.0)


def test_cluster_load_draw(benchmark):
    # the plant's turnout model: clusters of 10 persons at N(25 W, 5 W)
    model = TurnoutModel(cluster_size=10, mu_w=25.0, sigma_w=5.0)
    rng = Generator(42)
    load_w = benchmark.pedantic(model.cluster_load_w, args=(rng,),
                                rounds=ROUNDS, iterations=ITERATIONS)
    assert 0.0 < load_w < 10 * (25.0 + 10 * 5.0)


@pytest.mark.parametrize("subscribers", [0, 10, 100])
def test_put_property_with_callback_subscribers(benchmark, subscribers):
    broker = Broker()
    broker.create_thing("FDT:t", {"f": {"p": 0.0}})
    received = [0]

    def on_event(event):
        received[0] += 1

    for _ in range(subscribers):
        broker.subscribe("FDT:t/f/p", callback=on_event)
    values = itertools.count()

    def put():
        return broker.put_property("FDT:t", "f", "p", float(next(values)))

    revision = benchmark.pedantic(put, rounds=ROUNDS, iterations=ITERATIONS)
    assert revision >= ROUNDS * ITERATIONS
    assert broker.get_property("FDT:t", "f", "p") == revision - 1
    assert received[0] == subscribers * revision


def test_broker_get_through_handle_request(benchmark):
    # the request a historian broker read delivers to the broker
    broker = Broker()
    broker.create_thing("FDT:t", {"f": {"p": 42.5}})
    request = BrokerRequest("GET", "FDT:t", "f", "p")
    reply = benchmark.pedantic(broker.handle_request, args=(request,),
                               rounds=ROUNDS, iterations=ITERATIONS)
    assert reply == {"status": 200, "body": 42.5}


def test_broker_put_through_handle_request(benchmark):
    # the request a controller's telemetry publish delivers to the broker
    broker = Broker()
    broker.create_thing("FDT:t", {"f": {"p": 0.0}})
    request = BrokerRequest("PUT", "FDT:t", "f", "p", 42.5)
    reply = benchmark.pedantic(broker.handle_request, args=(request,),
                               rounds=ROUNDS, iterations=ITERATIONS)
    assert reply == {"status": 204, "body": None}
    assert broker.revision("FDT:t") >= ROUNDS * ITERATIONS
    assert broker.get_property("FDT:t", "f", "p") == 42.5


def test_ems_tick(benchmark):
    # the longest path: a deficit with the storage at its floor starts the
    # turbine
    cfg = EmsConfig()
    m = Measurements(solar_generation_kw=10.0, total_consumption_kw=100.0,
                     storage_level_pct=10.0, turbine_running=False)
    assert benchmark.pedantic(ems_tick, args=(cfg, m), rounds=ROUNDS,
                              iterations=ITERATIONS) \
        == ActionSet(IDLE, START, False, 25.0)


def operator_command(scenario_path, target, value):
    """A built runner and a function that delivers one management ->
    historian ``api`` command, as the benchmark's operator stream does,
    warmed by one delivery; returns (runner, deliver, delivery count)."""
    runner = Runner(load_scenario(scenario_path), pace=False)
    s = runner.scenario
    mgmt = next(n.id for n in s.nodes if n.segment == "management")
    request = {"type": "command", "target": target, "value": value}
    calls = itertools.count(1)
    last = [0]

    def deliver():
        last[0] = next(calls)
        return runner.fabric.deliver(mgmt, s.historian_node, "api", request)

    assert deliver() == {"ok": True, "target": target}      # warm
    return runner, deliver, last


def test_operator_coil_command(benchmark, scenario_path):
    # the stream's coil command: the master coil of a cabinet, set on
    cab = load_scenario(scenario_path).cabinets[0]
    target = f"modbus:{cab.node}/coil/{MASTER_COIL}"
    runner, deliver, last = operator_command(scenario_path, target, True)
    rf = runner.cabinets[cab.building].register_file
    rf.set_coil(MASTER_COIL, False)
    assert benchmark.pedantic(deliver, rounds=ROUNDS, iterations=ITERATIONS) \
        == {"ok": True, "target": target}
    assert last[0] > ROUNDS * ITERATIONS
    assert rf.get_coil(MASTER_COIL) is True


def test_operator_broker_command(benchmark, scenario_path):
    # the stream's broker command: the sun simulator's radiance, set to 0.0
    thing, feature, prop = "FDT:sun-simulator", "sky", "radiance"
    target = f"broker:{thing}/{feature}/{prop}"
    runner, deliver, last = operator_command(scenario_path, target, 0.0)
    assert benchmark.pedantic(deliver, rounds=ROUNDS, iterations=ITERATIONS) \
        == {"ok": True, "target": target}
    assert last[0] > ROUNDS * ITERATIONS
    assert runner.broker.get_property(thing, feature, prop) == 0.0
    assert runner.broker.revision(thing) == last[0]


# a set-up takes milliseconds, not microseconds: fewer rounds, one call each
SETUP_ROUNDS = 10


def test_load_radiance_year(benchmark, scenario_dir):
    path = os.path.join(scenario_dir, "radiance_2016.csv")
    table = benchmark.pedantic(load_radiance_csv, args=(path,),
                               rounds=SETUP_ROUNDS, iterations=1)
    assert len(table.xs) == len(table.ys) == 8784    # 2016 is a leap year
    assert interpolate(table, 12 * 3600.0) == table.ys[12]


def test_runner_setup(benchmark, scenario_path):
    def setup():
        return Runner(load_scenario(scenario_path), pace=False)

    runner = benchmark.pedantic(setup, rounds=SETUP_ROUNDS, iterations=1)
    assert runner.solar and runner.storage and runner.turbine
    assert runner._heap == []       # nothing is scheduled before a run
