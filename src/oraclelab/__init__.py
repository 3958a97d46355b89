"""Desk-scale numerical laboratory for oracle identification experiments.

Subpackages and modules:

* ``simcore``    -- dense state-vector simulation, Haar-random circuits, and
  Fourier matrices over finite groups.
* ``dispersion`` -- L1 dispersion certification and Fourier-block search.
* ``signs``      -- compilation of complex rows into +-1 sign vectors.
* ``oracle``     -- the single-level oracle identification game.
* ``rfs``        -- recursive oracle identification: query/error accounting,
  a literal tiny coherent simulator, a classical baseline, and the progress
  potential referee.
* ``paulichain`` -- the Pauli-string Markov chain driven by random two-qubit
  gates, its weight lumping, spectra and moment matching.
* ``cli``        -- seeded, replayable experiment orchestration.

Conventions fixed across the package (see README for details): qubit ``k`` is
bit ``k`` of the basis index (little-endian); randomness always flows through
explicit Philox-backed generator streams; a sampled circuit applied forward to
a basis state is, by definition, the *adjoint* of the unitary whose rows the
oracle compiler targets.
"""

__version__ = "0.1.0"
