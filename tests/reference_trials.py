"""A per-trial driver: adversaries written trial by trial, played by the
batch engine.

The games call an adversary's batch pair of phases only.
`TrialIrrAdversary` and `TrialUnlinkAdversary` implement it by running a
scalar pair on each trial of the chunk in turn, on the chunk's streams,
which is how the reference twins in `reference_adversaries` and the
scalar fixtures of the game tests play.

The scalar inversion pair: `phase1(params, leak, tau, oracle, rng)`
returns the state for `phase2(state, view, oracle, rng)`, which returns
the guessed feature, a packed int.  The scalar unlink pair: `phase1(params,
leak, oracle, rng)` returns (x, x0, x1, state) and `phase2(state, view,
view_prime, oracle, rng)` the guessed bit.  The oracle is the trial's
`TrialOracle`, which charges the trial's row of the chunk's
`SamplingOracle`, and a view holds the trial's template codes, which a
scalar phase reads with the scheme's batch methods.  A trial whose oracle
refuses a query is cut there; a trial cut in phase 1 gets no phase 2.
"""

from abc import abstractmethod

import numpy as np

from btpeval.errors import ProtocolError
from btpeval.games import IrrAdversary, UnlinkAdversary
from btpeval.schemes import ProtectedTemplate


class BudgetExhausted(Exception):
    """A trial's oracle refused the query that would pass its budget."""


class TrialOracle:
    """The scalar oracle of trial `trial` of a chunk's `SamplingOracle`.

    `sample(u)` is one capture of user u, a packed int, charged to
    the trial's row (`row`) and drawn through the chunk, so the trials
    draw from the chunk's sampling stream in turn.  `query_count` is
    monotone and never passes the chunk's `query_budget`: the query that
    would pass it is refused before any draw, the row is cut and
    `BudgetExhausted` raised.
    """

    def __init__(self, chunk, trial: int):
        self._chunk, self._trial = chunk, trial
        self.row = int(chunk.rows[trial])

    @property
    def query_count(self) -> int:
        return int(self._chunk._counts[self.row])

    def sample(self, u: int) -> int:
        chunk = self._chunk
        if not 0 <= u < chunk.population.num_users:
            raise IndexError(f"unknown user {u}")
        if self.query_count >= chunk.query_budget:
            chunk._cut[self.row] = True
            raise BudgetExhausted(
                f"query budget of {chunk.query_budget} exhausted")
        x = chunk.sample(np.array([self._trial]), np.array([u]))
        return int(x[0])


def _each_trial(oracle, play, states=None):
    """Call `play(j, trial_oracle, state)` on each trial j of a chunk.

    `states` holds each trial's phase-1 state by trial row; a trial cut in
    phase 1 has none and is skipped.  A play that exhausts the budget ends
    there: the trial's oracle has cut it.
    """
    for j, row in enumerate(oracle.rows.tolist()):
        if states is not None and row not in states:
            continue
        try:
            play(j, TrialOracle(oracle, j),
                 None if states is None else states[row])
        except BudgetExhausted:
            pass


def _trial_views(view):
    """`view(j)`: trial j of a chunk's coded view, its parts' codes."""
    def trial(j):
        return ProtectedTemplate(*(None if part is None else part[j]
                                   for part in (view.pi, view.alpha)))
    return trial


def _packed(n, x, what) -> int:
    if not isinstance(x, (int, np.integer)) or not 0 <= x < 1 << n:
        raise ProtocolError(f"the {what} must be a packed {n}-bit int, "
                            f"got {x!r}")
    return int(x)


class TrialIrrAdversary(IrrAdversary):
    """An inversion adversary written as a scalar pair of phases."""

    @abstractmethod
    def phase1(self, params, leak, tau, oracle, rng):
        """The state for phase 2 of one trial."""

    @abstractmethod
    def phase2(self, state, view, oracle, rng) -> int:
        """The guess of one trial."""

    def phase1_batch(self, params, leak, tau, oracle, rng):
        states = {}

        def play(j, one, _):
            states[one.row] = self.phase1(params, leak, tau, one, rng)

        _each_trial(oracle, play)
        return params, states

    def phase2_batch(self, state, view, oracle, rng) -> np.ndarray:
        params, states = state
        guesses = np.zeros(oracle.trials, dtype=np.uint64)
        trial_view = _trial_views(view)

        def play(j, one, trial_state):
            guess = self.phase2(trial_state, trial_view(j), one, rng)
            guesses[j] = _packed(params.population.n, guess, "guess")

        _each_trial(oracle, play, states)
        return guesses


class TrialUnlinkAdversary(UnlinkAdversary):
    """A distinguishing adversary written as a scalar pair of phases."""

    @abstractmethod
    def phase1(self, params, leak, oracle, rng):
        """(x, x0, x1, state) of one trial."""

    @abstractmethod
    def phase2(self, state, view, view_prime, oracle, rng) -> int:
        """The guessed bit of one trial."""

    def phase1_batch(self, params, leak, oracle, rng):
        n = params.population.n
        xs = np.zeros((3, oracle.trials), dtype=np.uint64)
        states = {}

        def play(j, one, _):
            *features, states[one.row] = self.phase1(params, leak, one, rng)
            xs[:, j] = [_packed(n, x, "challenge feature") for x in features]

        _each_trial(oracle, play)
        return (*xs, (params, states))

    def phase2_batch(self, state, view, view_prime, oracle, rng) -> np.ndarray:
        params, states = state
        bits = np.zeros(oracle.trials, dtype=np.int64)
        views = _trial_views(view)
        views_prime = _trial_views(view_prime)

        def play(j, one, trial_state):
            bit = self.phase2(trial_state, views(j), views_prime(j), one, rng)
            if bit not in (0, 1):
                raise ProtocolError(f"guess must be 0 or 1, got {bit!r}")
            bits[j] = bit

        _each_trial(oracle, play, states)
        return bits
