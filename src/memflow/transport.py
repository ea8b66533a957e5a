"""Evolution of the age-structured deformation history.

The history holds one 2-tensor field per age node.  One full time step
advances every slice by the react-advect stage of

    dG/dt = -u . grad G + G . grad u

and shifts the stack by one age index, injecting the identity at age zero.
Because the react-advect operator acts identically on every slice it
commutes exactly with the shift.  Age j is stored at row j (slice-major
layout, age outermost), the layout of a checkpoint's ``history.fld``; the
shift moves each live row down one row.

Each row G_j of G = F^T is divergence-free (the Piola identity for
det F = 1, which an incompressible flow keeps), so like the velocity it is
its mean plus a curl, G_j = mean_j + (-d2 psi_j, d1 psi_j), stored as the
band spectrum of psi_j (:meth:`~memflow.spectral.SpectralGrid.curl_hat`):
about 4.5x fewer bytes than the physical field.  That loses nothing: the
identity is psi = 0 with the means e_j, every right-hand side is a band
spectrum, and an explicit history is projected onto the band and each row
onto its divergence-free part (:func:`init_history`).  The physical fields,
needed for the products, exist one chunk at a time.

With div u = 0 the right-hand side of row j is the curl of one scalar,

    G_jl d_l u_k - d_l (u_l G_jk) = (-d2 w_j, d1 w_j)_k,   w_j = G_j1 u2 - G_j2 u1,

so the means never change and d psi_j/dt is the band part of w_j less its
mean (:func:`_react_rhs_hat`): 2 forward band transforms a stage.

Only distinct ages are stored and stepped.  A flow started from rest has a
quiescent past, so after k steps every age s >= k ds holds one field, the
deformation since the start (the deformation-fields view of Hulsen, Peters
& van den Brule, J. Non-Newtonian Fluid Mech. 98, 2001).  The history counts
its ``live`` ages: ages 0 .. live - 2 have their own rows, and the tail row,
age live - 1, is the exact field of every older age.  An identity start has
live = 1 and an explicit one live = N_s; each step adds one, up to N_s, so
step k from rest holds min(k + 1, N_s) live rows, not N_s.

The newborn row, age 0, is known before a step does any work: the
deformation at age zero is the identity, F(t, t) = I.  So a step sets it
and does not step it; step k from rest advances min(k, N_s - 1) rows.
The next step finds that row, now age 1, still the identity, and takes
its first Heun stage in closed form (:func:`_step_identity`): 6 transforms,
where a row whose first stage is formed from its spectra takes 16, and 9
when its old velocity jet holds no gradient, whose 3 planes it then forms.

Every other row's first stage is the right-hand side at its fields and the
old velocity, and the row's last transform gave those fields one step
before, when that velocity was the new one (first same as last: Dormand &
Prince, J. Comput. Appl. Math. 6, 1980).  So each step forms, while a row's
new fields are in cache, the next step's first right-hand side, 2 forward
transforms, into the row's ``carry`` beside its potentials, and the next
step starts from it: 12 transforms a row, and 8 for the identity row
(:func:`stretch_advect_step`).

Every pass visits the live rows in age order (:meth:`DeformationHistory.chunks`):
the newborn, then age 1, each a chunk of one row, then chunks of at most
``chunk_slices(n)`` rows from age 2 on.  A step is the only pass over the
stack: each chunk but the newborn's takes one Heun step of ``ds``
(:func:`memflow.stepper.heun`) and, once updated and still in cache, goes
with its new fields and spectra to an optional reduction (stress and bound
scan, :mod:`memflow.stress`), which weights each age by its kernel mass
(:meth:`DeformationHistory.mass`); the newborn goes to it as the identity.
The stage arithmetic and every transform of a chunk write into the buffers
:meth:`DeformationHistory.chunks` hands it with its rows: the history's one
:class:`ChunkWorkspace`, cut to the chunk.

Determinants are transported exactly by the continuum equations for
divergence-free velocities, so their discrete drift is left uncorrected as a
visible diagnostic of discretization quality.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .agegrid import AgeGrid
from .spectral import ChunkWorkspace, SpectralGrid, band_shape, chunk_slices
from .stepper import heun, velocity_gradient


class DegenerateHistoryError(ValueError):
    """Initial deformation data violates the determinant floor."""


class HistoryNaNError(FloatingPointError):
    """Non-finite entries appeared in the deformation stack."""


class DeformationHistory:
    """Stack of 2-tensor fields, one per age node, each stored as the band
    spectra of its rows' potentials (module docstring).

    ``payload`` has shape ``(n_nodes, 2, *band_shape(grid.n))``, complex;
    age j lives at row j.  ``live`` (default ``n_nodes``) counts the
    distinct ages stored, rows ``0 .. live - 1``: ages from ``live - 1`` on
    share the tail row, age ``live - 1``, and the other rows are not read.
    ``generation`` counts completed steps; ``workspace`` holds the chunk
    buffers of stack passes.  ``carry``, shaped as ``payload``, holds each
    stepped row's next first-stage right-hand side, valid at the velocity jet
    ``carry_jet`` (None: at none), as :func:`stretch_advect_step` formed them;
    rows not yet live are never written, so their pages stay unmapped.
    Without ``carry`` it is None, and every step forms each first stage
    from the stored spectra.
    Single-writer: one stepper mutates the stack, readers see a consistent
    snapshot between steps.
    """

    def __init__(self, payload: np.ndarray, age_grid: AgeGrid, grid: SpectralGrid, generation: int = 0,
                 live: int | None = None, carry: bool = True):
        grid.check_band(payload, (age_grid.n_nodes, 2), "history payload")
        self.payload = payload
        self.age_grid = age_grid
        self.grid = grid
        self.generation = generation
        self.live = age_grid.n_nodes if live is None else live
        if not 1 <= self.live <= age_grid.n_nodes:
            raise ValueError(f"live age count {self.live} outside 1 .. {age_grid.n_nodes}")
        self.workspace = ChunkWorkspace(self.n_slices, grid.n)
        self.carry, self.carry_jet = np.zeros(payload.shape, dtype=payload.dtype) if carry else None, None

    @property
    def n_slices(self) -> int:
        return self.payload.shape[0]

    def slice(self, j: int) -> np.ndarray:
        """View of the age-j potentials' spectra (the tail row for ``j >= live - 1``)."""
        return self.payload[min(j, self.live - 1)]

    def chunks(self):
        """``(age, rows, work)`` for the live rows in age order: ``rows`` the
        rows of the ages from ``age`` on, and ``work`` the buffers to process
        them in, :attr:`workspace` cut to ``len(rows)`` (:meth:`ChunkWorkspace.cut`).
        The newborn, age 0, and age 1 are chunks of one row each, so a step can
        set the one and take the other's first stage in closed form; from age 2
        on a chunk holds at most ``chunk_slices(n)`` rows.  A step advances
        each stepped row by ``age_grid.ds``, the spacing of the ages."""
        size, work = chunk_slices(self.grid.n), self.workspace
        for age in range(min(2, self.live)):
            yield age, self.payload[age : age + 1], work.cut(1)
        for age in range(2, self.live, size):
            rows = self.payload[age : min(age + size, self.live)]
            yield age, rows, work.cut(len(rows))

    def mass(self, age: int, count: int) -> np.ndarray:
        """Kernel mass of the live ages ``age .. age + count - 1``: each age's
        node mass, and for the tail row, age ``live - 1``, the mass of every
        age from it on (:attr:`AgeGrid.tail_mass`)."""
        grid = self.age_grid
        mass = grid.node_mass[age : age + count]
        if age + count == self.live:
            mass = np.append(mass[:-1], grid.tail_mass[self.live - 1])
        return mass


def stack_rows_within(cap_mb: float, n: int, carry: bool = True) -> int:
    """History rows that fit in ``cap_mb`` MiB on an n x n grid beside the
    largest chunk workspace of a stack pass: a row is band spectra of
    complex128, its 2 potentials and, with ``carry``, 2 more for their carry."""
    free_bytes = cap_mb * 2**20 - ChunkWorkspace.nbytes_for(n)
    return max(0, int(free_bytes // ((4 if carry else 2) * 16 * math.prod(band_shape(n)))))


def identity_stack(n_slices: int, n: int) -> np.ndarray:
    """Physical identity fields, shape ``(n_slices, 2, 2, n, n)``."""
    out = np.zeros((n_slices, 2, 2, n, n))
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    return out


def set_identity(row: np.ndarray, n: int) -> np.ndarray:
    """Write the identity on an n x n grid into ``row``, shape ``(2,
    *band_shape(n))``: psi = 0 with the means e_1 and e_2, so n^2 and i n^2
    at the two mean modes and +0.0 everywhere else."""
    row[:] = 0.0
    row[0, 0, 0], row[1, 0, 0] = n**2, complex(0.0, n**2)
    return row


def is_identity(row: np.ndarray, n: int) -> bool:
    """Whether ``row`` holds bit for bit the identity :func:`set_identity`
    writes: its two mean-mode words and no other nonzero word (a -0.0 is
    one), checked in one pass, with no buffer."""
    return bool(row[0, 0, 0] == n**2 and row[1, 0, 0] == 1j * n**2 and np.count_nonzero(row.view(np.uint64)) == 2)


def row_fields(grid: SpectralGrid, psi: np.ndarray, work: "ChunkWorkspace") -> np.ndarray:
    """The fields of a chunk's potentials in ``work.g``, through ``work.spec``: 4 inverse transforms a slice,
    one potential's two at a time."""
    for j in range(2):
        grid.inv(grid.curl_hat(psi[:, j], work.spec), out=work.g[:, j], rows=work.rows)
    return work.g


def init_history(spec, grid: SpectralGrid, age_grid: AgeGrid, mu: float = 1.0,
                 carry: bool = True) -> DeformationHistory:
    """Build the initial history.

    ``spec`` is either the string ``"identity"`` (quiescent past: every
    slice is the identity, held as one tail row, ``live = 1``) or an
    explicit array of per-age physical tensor fields in increasing-age
    order, projected onto the band and stored as its rows' potentials, which
    projects each row onto its divergence-free part
    (:meth:`~memflow.spectral.SpectralGrid.potential_hat`; ``live = n_nodes``).
    The projected fields must keep ``det G >= mu > 0`` at every node; data that the row projection
    moves, or whose age-zero slice differs from the identity, is accepted
    with a warning.  That slice is not overwritten: the first
    step's shift carries it to age 1 and steps it like every other age, and
    the identity enters as the new age 0.  ``carry`` is
    :class:`DeformationHistory`'s.
    """
    payload = np.zeros((age_grid.n_nodes, 2, *grid.band_shape), dtype=complex)
    if isinstance(spec, str):
        if spec != "identity":
            raise ValueError(f"unknown history spec {spec!r}")
        set_identity(payload[0], grid.n)  # the tail row: rows not yet live stay unmapped
        return DeformationHistory(payload, age_grid, grid, live=1, carry=carry)
    data = np.asarray(spec, dtype=float)
    expected = (age_grid.n_nodes, 2, 2, grid.n, grid.n)
    if data.shape != expected:
        raise ValueError(f"explicit history must have shape {expected}, got {data.shape}")
    if mu <= 0:
        raise ValueError("determinant floor mu must be positive")
    history = DeformationHistory(payload, age_grid, grid, carry=carry)
    min_det, moved = math.inf, 0.0
    for age, psi, work in history.chunks():
        for j in range(2):  # one row of G, a potential, at a time
            g_hat = grid.fwd(data[age : age + len(psi), j], out=work.rhs[:, j], rows=work.rows)
            g_hat -= grid.curl_hat(grid.potential_hat(g_hat, psi[:, j]), work.spec)  # the part the projection removed
            moved = max(moved, float(np.abs(grid.inv(g_hat, out=work.prod[:, j], rows=work.rows)).max()))
        min_det = np.minimum(min_det, det_field(row_fields(grid, psi, work)).min())
    if not min_det >= mu:  # NaN fails too
        raise DegenerateHistoryError(
            f"initial history has min det G = {min_det:.6g}, below the floor mu = {mu:.6g}"
        )
    if moved > 1e-12:
        warnings.warn(f"rows of the supplied history are not divergence-free: their projection moved a field "
                      f"by up to {moved:.3g}", stacklevel=2)
    if not np.allclose(data[0], identity_stack(1, grid.n)[0], atol=1e-12):
        warnings.warn("age-zero slice of the supplied history differs from the identity", stacklevel=2)
    return history


def det_field(g: np.ndarray) -> np.ndarray:
    """Pointwise determinant for arrays shaped (..., 2, 2, n, n)."""
    return g[..., 0, 0, :, :] * g[..., 1, 1, :, :] - g[..., 0, 1, :, :] * g[..., 1, 0, :, :]


def age_shift(history: DeformationHistory) -> DeformationHistory:
    """Advance every slice one age index and inject the identity at age zero.

    Each live row moves down one row with its carry, if the history holds
    one, one at a time from the oldest, so no second stack is needed; a
    full history overwrites its oldest row, whose kernel mass is below the
    grid's tail tolerance by construction.  Row 0 becomes the newborn, and
    ``live`` grows by it, up to ``n_slices``; its carry is left as it was.
    """
    payload, carry = history.payload, history.carry
    history.live = min(history.live + 1, history.n_slices)
    for j in range(history.live - 1, 0, -1):
        payload[j] = payload[j - 1]
        if carry is not None:
            carry[j] = carry[j - 1]
    set_identity(payload[0], history.grid.n)
    return history


def _react_rhs_hat(grid: SpectralGrid, g: np.ndarray, u_jet: np.ndarray, work: ChunkWorkspace,
                   out: np.ndarray) -> np.ndarray:
    """Band spectra of the potentials' right-hand side, written into ``out``,
    ``(c, 2, *band_shape)``: the band part of each w_j = G_j1 u2 - G_j2 u1
    (module docstring) with its mean mode 0.0, as the means do not change.
    The products are formed in ``work.prod``, the chunk's workspace, and take
    one forward band transform each.  ``u_jet`` is the velocity's jet, with
    or without its gradient, of which the field is read; ``g`` is read,
    never written."""
    u, w, scratch = u_jet[0], work.prod[:, 0], work.prod[:, 1]
    np.multiply(g[:, :, 0], u[1], out=w)
    w -= np.multiply(g[:, :, 1], u[0], out=scratch)
    grid.fwd(w, out=out, rows=work.rows)
    out[..., 0, 0] = 0.0
    return out


def _step_chunk(grid: SpectralGrid, psi: np.ndarray, work: ChunkWorkspace, u_old, u_new, dt: float,
                first: np.ndarray | None = None):
    """One Heun step of a chunk's potentials ``psi`` (:func:`memflow.stepper.heun`):
    their new band spectra and the new fields.  ``first``, if given, is the
    first stage's right-hand side, at ``psi``'s fields and ``u_old``: the
    step then transforms no field of ``psi``, 10 transforms a row, not 16,
    and returns the new spectra in ``first``'s buffer."""
    def rhs(g, k):
        if k == 0 and first is not None:
            return first
        return _react_rhs_hat(grid, g, (u_old, u_new)[k], work, work.rhs[:, :, k])
    inv = lambda f: row_fields(grid, f, work)
    return heun(None if first is not None else inv(psi), psi, rhs, inv, dt, stage=work.rhs[:, :, 1])


def _step_identity(grid: SpectralGrid, psi: np.ndarray, work: ChunkWorkspace, u_old, u_new,
                   u_old_psi: np.ndarray, dt: float):
    """The Heun step of :func:`_step_chunk` for a one-row chunk that holds the
    identity, with its first stage in closed form.

    With G = I the scalars are w = (u2, -u1), so the first right-hand side
    is their band spectra less their means, the gradient (d1 phi, d2 phi) of
    the old velocity's stream function, whose band spectrum is
    ``u_old_psi``, and the predictor field is I + dt times their curl
    ``[[-d2 u2, d1 u2], [d2 u1, -d1 u1]]``: from its jet, with no transform,
    when the jet holds the gradient, and else formed from ``u_old_psi``
    (:func:`~memflow.stepper.velocity_gradient`, with -d2 u2 = d1 u1 as in
    a jet), 3 inverse transforms.  The second stage and the new field take
    theirs: 6 transforms, or 9, where a row of :func:`_step_chunk` takes 16."""
    r1, pred = work.rhs[:, :, 0], work.g
    np.multiply(grid.d1_band, u_old_psi, out=r1[0, 0])
    np.multiply(grid.d2_band, u_old_psi, out=r1[0, 1])
    r1[..., 0, 0] = 0.0
    if len(u_old) == 3:  # the jet holds the gradient
        (d1u1, d1u2), (d2u1, d2u2) = u_old[1:]
        np.negative(d2u2, out=pred[0, 0, 0])
        pred[0, 0, 1], pred[0, 1, 0] = d1u2, d2u1
    else:  # d1 u1, d1 u2, d2 u1 into the first three planes
        d1u1 = velocity_gradient(grid, u_old_psi, work, work.planes("g")[:3])[0]
    np.negative(d1u1, out=pred[0, 1, 1])
    pred *= dt
    pred[0, 0, 0] += 1.0
    pred[0, 1, 1] += 1.0
    r1 += _react_rhs_hat(grid, pred, u_new, work, work.rhs[:, :, 1])
    r1 *= 0.5 * dt
    r1 += psi
    return r1, row_fields(grid, r1, work)


def stretch_advect_step(
    history: DeformationHistory, u_old: np.ndarray, u_new: np.ndarray, reduction=None,
    u_old_psi: np.ndarray | None = None,
) -> DeformationHistory:
    """One full history step of ``history.age_grid.ds``: age shift, then Heun
    react-advect of every live slice but the newborn.

    The two Heun stages sample the velocity at the old and new time levels,
    given as jets (:attr:`memflow.stepper.FlowState.jet`), which keeps the
    stage second-order accurate; the exact shift and the identity injection
    make the age-zero boundary condition exact, and the one-index shift is
    exact because the step is the age spacing ``ds``.
    Slices are updated independently (data-parallel over age), and a
    non-finite result aborts with the offending slice's age (after the shift)
    located, before its chunk is stored.  The rows stepped are the rows live
    before the step (:meth:`DeformationHistory.chunks` after the shift, less
    the newborn's chunk): the shift writes the identity into the newborn row,
    the exact value a Heun step of it would be overwritten with.

    A ``reduction`` (such as :class:`memflow.stress.StackReduction`) gets, in
    age order after the shift, ``add_identity()`` for the newborn and
    ``add_chunk(age, g, psi, work)`` for each chunk of updated rows from
    age ``age`` on (the physical fields, the potentials' band spectra and
    the chunk's workspace).  Transforms run on the history's grid.

    Given ``u_old_psi``, the band spectrum of ``u_old``'s stream function
    (:attr:`memflow.stepper.FlowState.psi_hat`), the age-1
    chunk, when its row is bit for bit the identity the shift
    writes (:func:`is_identity`), takes its first stage in closed form
    (:func:`_step_identity`): 6 transforms, not 16 (9 if ``u_old`` is a jet
    without its gradient, ``(1, 2, n, n)``).  It is so after every
    step (the newborn that step set), in a history from rest (its tail row),
    after a restart and in an explicit identity stack, whose projection
    gives the identity's bits.  Without ``u_old_psi`` every chunk takes
    :func:`_step_chunk`.

    Each stepped row leaves in ``history.carry`` its next first stage, the
    right-hand side at its new fields and ``u_new``: 2 forward transforms
    while the fields are in cache, none for the row at age ``n_slices - 1``,
    which the next shift drops.  A next step whose ``u_old`` is that
    ``u_new`` object (``carry_jet``), with it and the rows unchanged in
    between, starts each row from age 2 on from its carry in place of 4
    inverse and 2 forward transforms, with the same bits: a stepped row
    takes 12 transforms (18 with a bound scan's 6), the age-1 identity row
    8 (14).  Any other ``u_old``, as on a run's or a restart's first step,
    has its first stages formed from the stored spectra: 18 transforms a
    row that forms a carry.  A history without a carry forms none, and
    forms every first stage so: 16 transforms a row (22 with a bound scan).
    """
    grid, dt = history.grid, history.age_grid.ds
    carried, carry = u_old is history.carry_jet, history.carry
    history.carry_jet = None  # until every row's carry is formed again
    age_shift(history)  # row 0 becomes the newborn, the identity
    for age, psi, work in history.chunks():
        if age == 0:  # the newborn is set, not stepped: F(t, t) = I
            if reduction is not None:
                reduction.add_identity()
            continue
        if age == 1 and u_old_psi is not None and is_identity(psi[0], grid.n):  # the last newborn or a tail row
            r1, g = _step_identity(grid, psi, work, u_old, u_new, u_old_psi, dt)
        else:  # the age-1 row, the last newborn when carried, has no carry
            first = carry[age : age + len(psi)] if carried and age > 1 else None
            r1, g = _step_chunk(grid, psi, work, u_old, u_new, dt, first)
        if not (math.isfinite(g.min()) and math.isfinite(g.max())):  # all finite, with no n^2 buffer
            bad = age + int(np.argwhere(~np.isfinite(g))[0, 0])
            raise HistoryNaNError(f"non-finite deformation at step {history.generation + 1}, age slice {bad}")
        psi[:] = r1
        ahead = 0 if carry is None else min(len(psi), history.n_slices - 1 - age)  # the rows the next shift keeps
        if ahead > 0:
            _react_rhs_hat(grid, g[:ahead], u_new, work.cut(ahead), carry[age : age + ahead])
        if reduction is not None:  # it may overwrite the scratch buffers, which this chunk no longer needs
            reduction.add_chunk(age, g, psi, work)
    history.generation += 1
    history.carry_jet = None if carry is None else u_new
    return history
