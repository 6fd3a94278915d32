"""Statistical gates on the shot stream.

The whole tomography stack draws from one generator, so these check the
draws' statistics rather than any one stream: stacked Bloch estimates
against the binomial mean and variance, and the fig4a noisy sweep against
a record made when every member had its own generator.  The mutation tests
in ``test_oracle_mutations.py`` run the same gates on broken samplers.
"""

from _helpers import bloch_gate_passes, bloch_shot_gate, sweep_gate_passes, sweep_shot_gate


def test_stacked_bloch_estimates_have_binomial_statistics():
    gate = bloch_shot_gate()
    assert bloch_gate_passes(gate), gate


def test_noisy_sweep_agrees_with_the_per_member_stream_record():
    gate = sweep_shot_gate()
    assert sweep_gate_passes(gate), gate
