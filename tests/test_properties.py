"""Property tests of the exact engine over random in-bounds tree shapes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from treebsm.analytic import Protocol, logical_bsm
from treebsm.trees import ChannelParams

shapes = st.lists(st.integers(1, 130), min_size=1, max_size=4).map(tuple)
etas = st.floats(0.3, 1.0)
epss = st.one_of(st.just(0.0), st.floats(1e-6, 1e-2))
EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True)


@EXAMPLES
@given(b=shapes, eta=etas, eps=epss)
def test_error_rates_in_range(b, eta, eps):
    for protocol in (Protocol.STATIC, Protocol.DYNAMIC):
        res = logical_bsm(b, ChannelParams(eta=eta, eps=eps), protocol)
        assert 0.0 <= res.err_zz <= 0.5 and 0.0 <= res.err_xx <= 0.5, (protocol, res)
        assert 0.0 <= res.err_complete <= 0.75, (protocol, res)


@EXAMPLES
@given(b=shapes, eta=etas, eps=epss)
def test_dynamic_dominates_static(b, eta, eps):
    params = ChannelParams(eta=eta, eps=eps)
    assert (logical_bsm(b, params, Protocol.DYNAMIC).pr_complete
            >= logical_bsm(b, params, Protocol.STATIC).pr_complete - 1e-12)


@EXAMPLES
@given(b=shapes, eta=etas, step=st.floats(0.0, 0.7), eps=epss)
def test_success_monotone_in_eta(b, eta, step, eps):
    higher = min(1.0, eta + step)
    for protocol in (Protocol.STATIC, Protocol.DYNAMIC):
        lo = logical_bsm(b, ChannelParams(eta=eta, eps=eps), protocol).pr_complete
        hi = logical_bsm(b, ChannelParams(eta=higher, eps=eps), protocol).pr_complete
        assert hi >= lo - 1e-12, (protocol, eta, higher)
