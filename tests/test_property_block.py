"""Property tests: batched columnar kernels are bit-identical to serial.

Randomizes over chip kind (TLC/QLC), stress condition, batch size
(including 1) and ragged / non-contiguous row subsets, asserting the
columnar kernels of :mod:`repro.flash.block` reproduce the per-wordline
path exactly — errors, mismatch masks, RBER, sentinel readouts.  The
deterministic end-to-end equivalences (``measure`` / ``characterize_chip``
/ ``sweep_block_offsets`` against a reference loop over
``chip.iter_wordlines`` and the per-wordline API) are pinned at the bottom.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.capability import CapabilityEcc
from repro.flash.chip import FlashChip
from repro.flash.mechanisms import StressState
from repro.flash.spec import QLC_SPEC, TLC_SPEC

SPECS = {
    kind: base.scaled(
        cells_per_wordline=1024,
        wordlines_per_layer=1,
        layers=4,
        name_suffix="-prop",
    )
    for kind, base in (("tlc", TLC_SPEC), ("qlc", QLC_SPEC))
}

STRESSES = (
    StressState(),
    StressState(pe_cycles=1500, retention_hours=1000.0),
    StressState(pe_cycles=3000, retention_hours=8760.0),
)


def _chip(kind, stress):
    chip = FlashChip(SPECS[kind], seed=5, sentinel_ratio=0.002)
    chip.set_block_stress(0, stress)
    return chip


kinds = st.sampled_from(sorted(SPECS))
stresses = st.sampled_from(STRESSES)
# row subsets of the 4-wordline block: any size (incl. batch=1), any order,
# contiguous or ragged — the kernels must not care
row_subsets = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True
)


@given(kind=kinds, stress=stresses, rows=row_subsets)
@settings(max_examples=25, deadline=None)
def test_batched_read_and_sentinel_bit_identical(kind, stress, rows):
    """Batched sense/decode/RBER equal per-wordline reads, row for row."""
    spec = SPECS[kind]
    cols = _chip(kind, stress).block_columns(0, range(4))
    ref = _chip(kind, stress).block_columns(0, range(4))
    for page in range(spec.pages_per_wordline):
        batch = cols.read_page_batch(page, rows=rows)
        for j, r in enumerate(rows):
            serial = ref.wordline_view(r).read_page(page)
            assert int(batch.n_errors[j]) == serial.n_errors
            assert np.array_equal(batch.mismatch[j], serial.mismatch)
            assert float(batch.rber[j]) == serial.rber
    readouts = cols.sentinel_readout_batch(-6.0, rows=rows)
    for j, r in enumerate(rows):
        assert readouts[j] == ref.wordline_view(r).sentinel_readout(-6.0)


@given(kind=kinds, stress=stresses, rows=row_subsets)
@settings(max_examples=10, deadline=None)
def test_batched_single_voltage_bit_identical(kind, stress, rows):
    spec = SPECS[kind]
    cols = _chip(kind, stress).block_columns(0, range(4))
    ref = _chip(kind, stress).block_columns(0, range(4))
    pos = spec.read_voltage(spec.sentinel_voltage, -4)
    counts = cols.single_voltage_counts(pos, rows=rows)
    for j, r in enumerate(rows):
        assert int(counts[j]) == int(
            ref.wordline_view(r).single_voltage_read(pos).sum()
        )


@given(
    kind=kinds,
    n_rows=st.integers(min_value=1, max_value=5),
    width=st.integers(min_value=1, max_value=3000),
    rate=st.floats(min_value=0.0, max_value=0.02),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_decode_ok_batch_matches_per_row(kind, n_rows, width, rate, seed):
    """Batched ECC verdicts agree with decode_ok for any mask shape."""
    ecc = CapabilityEcc.for_spec(SPECS[kind])
    rng = np.random.default_rng(seed)
    mismatch = rng.random((n_rows, width)) < rate
    batched = ecc.decode_ok_batch(mismatch)
    for i in range(n_rows):
        assert bool(batched[i]) == ecc.decode_ok(mismatch[i])


# ---------------------------------------------------------------------------
# end-to-end: columnar sweeps equal a per-wordline reference loop
# ---------------------------------------------------------------------------
def _aged(spec):
    chip = FlashChip(spec, seed=11, sentinel_ratio=0.002)
    chip.set_block_stress(0, StressState(pe_cycles=3000, retention_hours=4000.0))
    return chip


def _measured_wordlines(spec):
    step = max(1, spec.wordlines_per_block // 64)
    return range(0, spec.wordlines_per_block, step)


def _reference_samples(spec, policy):
    """``RetryProfile.measure`` spelled out with ``policy.read(wl, page)``."""
    samples = {p: [] for p in range(spec.pages_per_wordline)}
    for wl in _aged(spec).iter_wordlines(0, _measured_wordlines(spec)):
        for p in samples:
            outcome = policy.read(wl, p)
            samples[p].append((outcome.retries, outcome.extra_single_reads))
    return samples


def _assert_profile_matches(profile, reference, spec):
    assert profile.samples.keys() == reference.keys()
    for p, rows in reference.items():
        assert np.array_equal(
            profile.samples[p], np.asarray(rows, dtype=np.int64)
        )
    assert profile.page_voltages == {
        p: len(spec.gray.page_voltages(p)) for p in reference
    }


def test_measure_batched_equals_serial_lockstep(tiny_tlc):
    """CurrentFlashPolicy takes the lockstep kernel path; samples match."""
    from repro.retry.current_flash import CurrentFlashPolicy
    from repro.retry.policy import ReadPolicy
    from repro.ssd.retry_model import RetryProfile

    ecc = CapabilityEcc.for_spec(tiny_tlc)
    assert CurrentFlashPolicy.read_batch is not ReadPolicy.read_batch
    profile = RetryProfile.measure(
        _aged(tiny_tlc), CurrentFlashPolicy(ecc, tiny_tlc)
    )
    reference = _reference_samples(tiny_tlc, CurrentFlashPolicy(ecc, tiny_tlc))
    _assert_profile_matches(profile, reference, tiny_tlc)


def test_measure_batched_equals_serial_sentinel_policy(tiny_tlc):
    """SentinelController (no read_batch override) goes through views."""
    from repro.core.controller import SentinelController
    from repro.core.fitting import PolynomialFit
    from repro.core.models import CorrelationTable, SentinelModel
    from repro.retry.policy import ReadPolicy
    from repro.ssd.retry_model import RetryProfile

    nv = tiny_tlc.n_voltages
    model = SentinelModel(
        spec_name=tiny_tlc.name,
        sentinel_voltage=tiny_tlc.sentinel_voltage,
        n_voltages=nv,
        difference_poly=PolynomialFit(
            coeffs=np.array([500.0, -2.0]), x_min=-0.1, x_max=0.1
        ),
        correlations=[
            CorrelationTable(
                -273.0, 1000.0, np.linspace(1.4, 0.4, nv), np.zeros(nv)
            )
        ],
    )
    ecc = CapabilityEcc.for_spec(tiny_tlc)
    assert SentinelController.read_batch is ReadPolicy.read_batch
    profile = RetryProfile.measure(
        _aged(tiny_tlc), SentinelController(ecc, model)
    )
    reference = _reference_samples(tiny_tlc, SentinelController(ecc, model))
    _assert_profile_matches(profile, reference, tiny_tlc)


def test_characterize_batched_equals_serial(tiny_tlc):
    from repro.core.characterization import (
        DEFAULT_TRAINING_STRESSES,
        characterize_chip,
    )
    from repro.core.fitting import fit_difference_polynomial
    from repro.flash.optimal import optimal_offsets

    result = characterize_chip(
        FlashChip(tiny_tlc, seed=11, sentinel_ratio=0.002), blocks=(0, 1)
    )

    chip = FlashChip(tiny_tlc, seed=11, sentinel_ratio=0.002)
    d_rates, optima = [], []
    for stress in DEFAULT_TRAINING_STRESSES:
        for block in (0, 1):
            chip.set_block_stress(block, stress)
            for wl in chip.iter_wordlines(block):
                d_rates.append(wl.sentinel_readout(0.0).difference_rate)
                optima.append(optimal_offsets(wl))
    d_rates, optima = np.asarray(d_rates), np.vstack(optima)

    assert np.array_equal(result.d_rates, d_rates)
    assert np.array_equal(result.optima, optima)
    poly = fit_difference_polynomial(
        d_rates, optima[:, tiny_tlc.sentinel_voltage - 1], degree=5
    )
    assert np.array_equal(result.model.difference_poly.coeffs, poly.coeffs)


def _reference_sweep(spec, step=4):
    from repro.flash.sweep import measured_optimal_offsets

    rows = [
        measured_optimal_offsets(wl, step=step)
        for wl in _aged(spec).iter_wordlines(0)
    ]
    return np.vstack([dense for dense, _ in rows]), sum(r for _, r in rows)


def test_sweep_batched_equals_serial(tiny_tlc):
    from repro.flash.sweep import sweep_block_offsets

    offsets, reads = sweep_block_offsets(_aged(tiny_tlc), 0)
    ref_offsets, ref_reads = _reference_sweep(tiny_tlc)
    assert np.array_equal(offsets, ref_offsets)
    assert reads == ref_reads


def test_sweeps_split_into_sub_batches_are_unchanged(tiny_tlc, monkeypatch):
    """Shrinking the cells-per-batch bound splits every shard into
    several column batches (one of a single wordline); rows and their
    order stay those of the per-wordline loop."""
    from repro.flash import chip as chip_module
    from repro.flash.sweep import sweep_block_offsets
    from repro.retry.current_flash import CurrentFlashPolicy
    from repro.ssd.retry_model import RetryProfile

    monkeypatch.setattr(
        chip_module, "BATCH_CELLS", 2 * tiny_tlc.cells_per_wordline
    )
    sizes = [
        cols.n_wordlines
        for cols in _aged(tiny_tlc).iter_wordline_batches(0, range(5))
    ]
    assert sizes == [2, 2, 1]

    offsets, reads = sweep_block_offsets(_aged(tiny_tlc), 0)
    ref_offsets, ref_reads = _reference_sweep(tiny_tlc)
    assert np.array_equal(offsets, ref_offsets)
    assert reads == ref_reads

    ecc = CapabilityEcc.for_spec(tiny_tlc)
    profile = RetryProfile.measure(
        _aged(tiny_tlc), CurrentFlashPolicy(ecc, tiny_tlc)
    )
    reference = _reference_samples(tiny_tlc, CurrentFlashPolicy(ecc, tiny_tlc))
    _assert_profile_matches(profile, reference, tiny_tlc)
