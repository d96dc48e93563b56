"""Property tests for the QoS plane's mechanisms (hypothesis).

Three contracts, each stated in the module docstrings of
``repro.core.qos`` and proven here over randomized schedules:

* **Token bucket window bound** — for costs ≤ burst, the work a bucket
  lets proceed inside any window ``(t0, t1]`` never exceeds
  ``rate × (t1 - t0) + burst``.
* **WFQ per-tenant FIFO** — whatever the tenant/cost interleaving, a
  WFQResource never reorders two requests of the same tenant.
* **WFQ weight shares** — continuously-backlogged tenants receive service
  in proportion to their configured weights.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.qos import TokenBucket, WFQResource
from repro.sim.engine import SimulationError, Simulator

# ---------------------------------------------------------------------------
# Token bucket: service over any window ≤ rate × window + burst
# ---------------------------------------------------------------------------

bucket_st = st.tuples(
    st.floats(min_value=0.5, max_value=1000.0),   # rate
    st.floats(min_value=1.0, max_value=64.0),     # burst
)

# (cost fraction of burst, inter-arrival gap) per request. Costs are drawn
# ≤ burst: the windowed bound only holds for requests the bucket can ever
# cover at once (a single cost > burst borrows past the bound by design).
arrivals_st = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=1.0),
              st.floats(min_value=0.0, max_value=2.0)),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(params=bucket_st, arrivals=arrivals_st)
def test_token_bucket_window_bound(params, arrivals):
    rate, burst = params
    bucket = TokenBucket(rate, burst)
    # Simulate the caller contract: charge at `now`, then actually proceed
    # (consume) after the returned delay.
    now = 0.0
    events = []  # (proceed_time, cost)
    for frac, gap in arrivals:
        now += gap
        cost = frac * burst
        wait = bucket.delay_for(cost, now)
        assert wait >= 0.0
        events.append((now + wait, cost))
        # Closed loop: the next request is only issued once this one
        # proceeded (the client generators block on the throttle sleep).
        now += wait

    # The bound must hold over *every* window, not just the full run.
    events.sort()
    times = [t for t, _ in events]
    eps = 1e-9
    for i, t0 in enumerate(times):
        served = 0.0
        for t1, cost in events[i:]:
            served += cost
            window = t1 - t0
            assert served <= rate * window + burst + eps, (
                f"window ({t0}, {t1}]: served {served} > "
                f"{rate} * {window} + {burst}")


def test_token_bucket_rejects_bad_config():
    with pytest.raises(SimulationError):
        TokenBucket(0.0, 1.0)
    with pytest.raises(SimulationError):
        TokenBucket(1.0, -2.0)


def test_token_bucket_refill_caps_at_burst():
    b = TokenBucket(rate=10.0, burst=5.0)
    assert b.delay_for(5.0, 0.0) == 0.0       # drain the full burst
    assert b.delay_for(5.0, 100.0) == 0.0     # long idle refills to burst…
    assert b.delay_for(1.0, 100.0) > 0.0      # …but never beyond it


# ---------------------------------------------------------------------------
# WFQ: per-tenant FIFO and weighted shares
# ---------------------------------------------------------------------------

schedule_st = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),        # tenant index
              st.floats(min_value=0.001, max_value=2.0)),   # cost/hold
    min_size=2, max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(schedule=schedule_st, capacity=st.integers(min_value=1, max_value=3))
def test_wfq_never_reorders_within_a_tenant(schedule, capacity):
    """Grant order within one tenant == issue order, for any schedule.

    The contract is about *grants* (when a request reaches the server),
    not completions — with capacity > 1, concurrent holds finish in
    hold-time order by construction.
    """
    sim = Simulator()
    res = WFQResource(sim, capacity=capacity, name="q")
    granted = []

    def holder(i, tenant, cost):
        req = res.request(tenant, cost)
        yield req
        granted.append((tenant, i))
        yield sim.timeout(cost)
        res.release(req)

    def driver():
        for i, (t, cost) in enumerate(schedule):
            sim.process(holder(i, f"t{t}", cost))
            # Tiny stagger so issue order is well-defined even under
            # capacity: all requests still pile up queued.
            yield sim.timeout(1e-6)

    sim.process(driver())
    sim.run()

    per_tenant = {}
    for tenant, i in granted:
        per_tenant.setdefault(tenant, []).append(i)
    for tenant, order in per_tenant.items():
        assert order == sorted(order), \
            f"tenant {tenant} completed out of issue order: {order}"
    assert len(granted) == len(schedule)
    assert res.queue_length == 0 and res.in_use == 0


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.sampled_from([1.0, 2.0, 4.0, 8.0]),
                        min_size=2, max_size=4))
def test_wfq_share_converges_to_weights(weights):
    """Continuously-backlogged tenants split service ∝ their weights."""
    sim = Simulator()
    wmap = {f"t{i}": w for i, w in enumerate(weights)}
    res = WFQResource(sim, capacity=1, name="cpu",
                      weight_of=lambda t: wmap.get(t, 1.0))
    HOLD = 0.01
    HORIZON = 40.0
    served = {t: 0.0 for t in wmap}

    def backlog(tenant):
        while sim.now < HORIZON:
            yield from res.use(HOLD, tenant, HOLD)
            served[tenant] += HOLD

    # Two closed-loop streams per tenant: with a single outstanding
    # request, release() always finds exactly one waiter and any queue
    # discipline degenerates to round-robin. Weighted shares are a
    # statement about *backlogged* tenants — at least one request must be
    # queued whenever one is granted.
    for t in wmap:
        for _ in range(2):
            sim.process(backlog(t))
    sim.run(until=HORIZON)

    total_w = sum(wmap.values())
    total_served = sum(served.values())
    assert total_served > 0
    for t, w in wmap.items():
        share = served[t] / total_served
        expect = w / total_w
        # One HOLD quantum of slack on either side of the ideal share.
        slack = 2 * HOLD / HORIZON + 0.02
        assert abs(share - expect) <= expect * 0.1 + slack, (
            f"tenant {t} (weight {w}) got share {share:.3f}, "
            f"expected ~{expect:.3f}")


def test_wfq_untagged_requests_still_work():
    """Tenant-unaware code (plain request/use) runs against a WFQResource."""
    sim = Simulator()
    res = WFQResource(sim, capacity=1, name="q")
    done = []

    def user(i):
        yield from res.use(0.01)
        done.append(i)

    for i in range(5):
        sim.process(user(i))
    sim.run()
    assert done == [0, 1, 2, 3, 4]
