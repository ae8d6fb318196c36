"""Property: ``PCIeLink.send_data`` equals a loop of ``send_tlp`` calls.

``send_data`` sends a burst as one channel send per TLP but bumps the
TLP and byte counters once per burst.  Against a twin simulator driven
by the per-TLP reference loop it must leave the same counters, the same
channel backlog, the same number of scheduled events and the same
ordered delivery timestamps.
"""

from hypothesis import given, settings, strategies as st

from repro.hw.pcie import PCIE_GEN4, PCIeLink
from repro.hw.pcie.tlp import TLP_HEADER_BYTES, segment_count, segment_sizes
from repro.sim import Simulator


def reference_send_data(link, nbytes, mps, forward):
    """The per-TLP burst: one ``send_tlp`` per segment."""
    if nbytes == 0:
        return link.channel.send(0, forward=forward)
    for size in segment_sizes(nbytes, mps):
        last = link.send_tlp(size, forward=forward)
    return last


def make_link(backlog, forward, elapsed):
    """A link with ``backlog`` bytes queued ``elapsed`` ns ago."""
    sim = Simulator()
    link = PCIeLink(sim, PCIE_GEN4, latency=75.0, name="pcie1")
    for nbytes in backlog:
        link.channel.send(nbytes, forward=forward)
    sim.run(until=elapsed)
    return sim, link


def state(sim, link):
    queue = sorted(sim._queue, key=lambda entry: entry[:2])
    return {
        "counters": [(c.total, c.events) for c in
                     (link.tlps_fwd, link.tlps_rev,
                      link.data_bytes_fwd, link.data_bytes_rev)],
        "free_at": (link.channel.fwd._free_at, link.channel.rev._free_at),
        "channels": [(c.bytes_sent.total, c.transfers.total) for c in
                     (link.channel.fwd, link.channel.rev)],
        "scheduled": sim._seq,
        "deliveries": [(when, event._value) for when, _key, event in queue],
    }


bursts = dict(
    nbytes=st.integers(min_value=0, max_value=64 * 1024),
    mps=st.sampled_from([128, 256, 512]),
    forward=st.booleans(),
    backlog=st.lists(st.integers(min_value=0, max_value=8192), max_size=4),
    elapsed=st.floats(min_value=0.0, max_value=500.0),
)


@settings(max_examples=200, deadline=None)
@given(**bursts)
def test_burst_matches_per_tlp_reference(nbytes, mps, forward, backlog,
                                         elapsed):
    sim, link = make_link(backlog, forward, elapsed)
    twin_sim, twin = make_link(backlog, forward, elapsed)

    last = link.send_data(nbytes, mps, forward=forward)
    twin_last = reference_send_data(twin, nbytes, mps, forward)
    assert state(sim, link) == state(twin_sim, twin)

    fired, twin_fired = [], []
    last.add_callback(lambda event: fired.append(sim.now))
    twin_last.add_callback(lambda event: twin_fired.append(twin_sim.now))
    sim.run()
    twin_sim.run()
    assert fired == twin_fired and len(fired) == 1
    assert sim.events_executed == twin_sim.events_executed
    assert state(sim, link) == state(twin_sim, twin)


@settings(max_examples=50, deadline=None)
@given(**bursts)
def test_wrapped_channel_sees_every_tlp(nbytes, mps, forward, backlog,
                                        elapsed):
    """A per-instance ``channel.send`` wrapper, as the fault injector
    installs, is called once per TLP (once for a zero-byte burst)."""
    sim, link = make_link(backlog, forward, elapsed)
    calls = []
    original = link.channel.send

    def wrapped(nbytes, forward=True):
        calls.append((nbytes, forward))
        return original(nbytes, forward=forward)

    link.channel.send = wrapped
    link.send_data(nbytes, mps, forward=forward)
    tlps = segment_count(nbytes, mps)
    assert len(calls) == max(1, tlps)
    assert all(direction == forward for _size, direction in calls)
    assert sum(size for size, _ in calls) == (
        nbytes + tlps * TLP_HEADER_BYTES if tlps else 0)
