"""Execution backends: cost accounting with or without real data movement.

The simulator exists to *count* — rounds, words, flops — yet historically it
always *moved* real numpy elements too: every rank's blocks lived in its
:class:`~repro.machine.store.LocalStore` and every
:class:`~repro.machine.message.Message` payload was deep-copied in transit.
That numeric execution is what lets small runs be verified against
``A @ B``, but it caps sweeps at toy processor counts: Theorem 3's three
regimes are boundaries in ``P``, and probing the regime map at
``P ~ 10^4 - 10^6`` (the scales of the Demmel et al. '13 strong-scaling
study and of COSMA's evaluation) cannot afford ``P`` dense blocks plus a
copy per message hop.

This module makes the execution mode an explicit seam:

``DataBackend``
    Today's behavior.  Blocks are numpy arrays, messages copy elements,
    results are numerically verified.  The only mode in which ``C`` holds
    real numbers.

``SymbolicBackend``
    Blocks are :class:`SymbolicBlock` descriptors — a shape and nothing
    else.  Slicing, reshaping, ``@``, elementwise ufuncs, ``concatenate``
    and ``array_split`` all propagate *shapes* (validating them exactly as
    numpy would), so the one algorithm code path runs unchanged and every
    counter — words per message, rounds, flops charged from block
    dimensions — is **identical by construction** to the data backend's.
    What is lost is only the numeric check: symbolic mode is sound for
    cost-model questions, never for verifying arithmetic.

Algorithms stay backend-agnostic by construction sites going through the
helpers here: :func:`as_block` instead of ``np.asarray``, and
:func:`empty_block` / :func:`zeros_block` (keyed on a ``like`` operand)
instead of ``np.empty`` / ``np.zeros``.  A :class:`SymbolicBlock` entering
any *unsupported* numpy operation raises instead of silently degrading, so
the accounting stays honest.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "SymbolicBlock",
    "Backend",
    "DataBackend",
    "SymbolicBackend",
    "DATA_BACKEND",
    "SYMBOLIC_BACKEND",
    "BACKENDS",
    "as_block",
    "empty_block",
    "zeros_block",
    "is_symbolic",
    "backend_for",
    "corrupt_block",
    "resolve_backend",
    "symbolic_operands",
]

_FLOAT = np.dtype(float)


def _shape_of(x: Any) -> Tuple[int, ...]:
    """Shape of a block, numpy array, or scalar (scalars are 0-d)."""
    if isinstance(x, SymbolicBlock):
        return x.shape
    return np.shape(x)


class SymbolicBlock:
    """A matrix block reduced to its shape: the symbolic backend's payload.

    Behaves like a read-only float64 ndarray for every operation the
    simulator performs — slicing, reshaping, transposition, ``@``,
    elementwise arithmetic, ``np.concatenate`` / ``np.array_split`` — but
    carries no elements.  All shape arithmetic is validated exactly as
    numpy would validate it, so a schedule that would crash on real data
    crashes symbolically too.  Unsupported operations raise ``TypeError``
    rather than degrade, keeping the word/flop accounting honest.
    """

    __slots__ = ("shape", "size")

    def __init__(self, shape: Union[int, Sequence[int]]) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(d) for d in shape)
        for d in shape:
            if d < 0:
                raise ValueError(f"negative dimension in shape {shape}")
        self.shape = shape
        size = 1
        for d in shape:
            size *= d
        self.size = size

    @staticmethod
    def _new(shape: Tuple[int, ...], size: int) -> "SymbolicBlock":
        # Internal fast constructor for pre-validated shapes: symbolic
        # sweeps at production-sized P create blocks millions of times,
        # so skipping __init__'s normalization is a measurable win.
        block = SymbolicBlock.__new__(SymbolicBlock)
        block.shape = shape
        block.size = size
        return block

    # -- ndarray-protocol surface --------------------------------------- #

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self) -> np.dtype:
        return _FLOAT

    @property
    def T(self) -> "SymbolicBlock":
        return SymbolicBlock(self.shape[::-1])

    def copy(self) -> "SymbolicBlock":
        # Immutable: a copy is indistinguishable from the original, and
        # skipping the allocation is exactly the point of this backend.
        return self

    def astype(self, dtype: Any, **kwargs: Any) -> "SymbolicBlock":
        return self

    def reshape(self, *shape: Any) -> "SymbolicBlock":
        if len(shape) == 1 and shape[0] == -1:
            if len(self.shape) == 1:
                return self
            return SymbolicBlock._new((self.size,), self.size)
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        dims = [int(d) for d in shape]
        negatives = [i for i, d in enumerate(dims) if d < 0]
        if len(negatives) > 1:
            raise ValueError("can only specify one unknown dimension")
        if negatives:
            known = 1
            for i, d in enumerate(dims):
                if i != negatives[0]:
                    known *= d
            if known == 0 or self.size % known != 0:
                raise ValueError(
                    f"cannot reshape block of size {self.size} into shape {tuple(dims)}"
                )
            dims[negatives[0]] = self.size // known
        out = SymbolicBlock(tuple(dims))
        if out.size != self.size:
            raise ValueError(
                f"cannot reshape block of size {self.size} into shape {out.shape}"
            )
        return out

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized symbolic block")
        return self.shape[0]

    # -- indexing -------------------------------------------------------- #

    def _index_shape(self, index: Any) -> Tuple[int, ...]:
        """Resulting shape of ``self[index]`` (ints and slices only)."""
        if type(index) is slice and self.shape:
            return (len(range(*index.indices(self.shape[0]))),) + self.shape[1:]
        if not isinstance(index, tuple):
            index = (index,)
        if len(index) > self.ndim:
            raise IndexError(
                f"too many indices for symbolic block of shape {self.shape}"
            )
        out = []
        for axis, ix in enumerate(index):
            d = self.shape[axis]
            if isinstance(ix, slice):
                out.append(len(range(d)[ix]))
            elif isinstance(ix, (int, np.integer)):
                ii = int(ix)
                if ii < -d or ii >= d:
                    raise IndexError(
                        f"index {ii} out of bounds for axis {axis} with size {d}"
                    )
                # integer index drops the axis
            else:
                raise TypeError(
                    f"symbolic blocks support int/slice indexing only, "
                    f"got {type(ix).__name__}"
                )
        out.extend(self.shape[len(index):])
        return tuple(out)

    def __getitem__(self, index: Any) -> "SymbolicBlock":
        shape = self._index_shape(index)
        size = 1
        for d in shape:
            size *= d
        return SymbolicBlock._new(shape, size)

    def __setitem__(self, index: Any, value: Any) -> None:
        # Writes carry no elements, but the shapes must still line up —
        # this is what catches mis-addressed block assembly symbolically.
        target = self._index_shape(index)
        vshape = _shape_of(value)
        try:
            if np.broadcast_shapes(target, vshape) != target:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"could not broadcast value of shape {vshape} into "
                f"region of shape {target}"
            ) from None

    # -- arithmetic ------------------------------------------------------ #

    def _broadcast(self, other: Any) -> "SymbolicBlock":
        # Blocks are immutable value objects, so a same-shape (or scalar)
        # result can share self instead of allocating.
        if (isinstance(other, SymbolicBlock) and other.shape == self.shape) \
                or isinstance(other, (int, float)):
            return self
        try:
            shape = np.broadcast_shapes(self.shape, _shape_of(other))
        except ValueError:
            raise ValueError(
                f"operands could not be broadcast together with shapes "
                f"{self.shape} and {_shape_of(other)}"
            ) from None
        return SymbolicBlock(shape)

    def __add__(self, other: Any) -> "SymbolicBlock":
        return self._broadcast(other)

    __radd__ = __add__
    __iadd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__
    __isub__ = __add__
    __mul__ = __add__
    __rmul__ = __add__
    __truediv__ = __add__
    __rtruediv__ = __add__

    def __neg__(self) -> "SymbolicBlock":
        return self

    def __pos__(self) -> "SymbolicBlock":
        return self

    def __matmul__(self, other: Any) -> "SymbolicBlock":
        a, b = self.shape, _shape_of(other)
        if len(a) != 2 or len(b) != 2:
            raise ValueError(
                f"symbolic matmul is defined for 2-D blocks, got {a} @ {b}"
            )
        if a[1] != b[0]:
            raise ValueError(
                f"matmul shape mismatch: {a} @ {b} (inner dimensions differ)"
            )
        return SymbolicBlock((a[0], b[1]))

    def __rmatmul__(self, other: Any) -> "SymbolicBlock":
        a, b = _shape_of(other), self.shape
        if len(a) != 2 or len(b) != 2:
            raise ValueError(
                f"symbolic matmul is defined for 2-D blocks, got {a} @ {b}"
            )
        if a[1] != b[0]:
            raise ValueError(
                f"matmul shape mismatch: {a} @ {b} (inner dimensions differ)"
            )
        return SymbolicBlock((a[0], b[1]))

    # -- numpy dispatch -------------------------------------------------- #

    def __array__(self, dtype: Any = None, copy: Any = None) -> None:
        # Refuse silent coercion: np.asarray(symbolic) would otherwise
        # produce a useless 0-d object array and corrupt the accounting.
        raise TypeError(
            "symbolic blocks carry no elements; route this call through "
            "repro.machine.backend.as_block or a *_like factory"
        )

    def __array_ufunc__(self, ufunc: Any, method: str, *inputs: Any, **kwargs: Any):
        if method != "__call__" or kwargs.get("out") is not None or ufunc.nout != 1:
            return NotImplemented
        if ufunc is np.matmul:
            # ndarray @ SymbolicBlock arrives here (np.matmul is a ufunc),
            # not at __rmatmul__ — route it to the matmul shape rule.
            if len(inputs) != 2:
                return NotImplemented
            a, b = _shape_of(inputs[0]), _shape_of(inputs[1])
            if len(a) != 2 or len(b) != 2:
                raise ValueError(
                    f"symbolic matmul is defined for 2-D blocks, got {a} @ {b}"
                )
            if a[1] != b[0]:
                raise ValueError(
                    f"matmul shape mismatch: {a} @ {b} (inner dimensions differ)"
                )
            return SymbolicBlock((a[0], b[1]))
        if len(inputs) == 2:
            a, b = inputs
            if isinstance(a, SymbolicBlock) and isinstance(b, SymbolicBlock) \
                    and a.shape == b.shape:
                return a
        for x in inputs:
            if not isinstance(x, (SymbolicBlock, np.ndarray, int, float, np.number)):
                return NotImplemented
        try:
            shape = np.broadcast_shapes(*[_shape_of(x) for x in inputs])
        except ValueError:
            raise ValueError(
                f"operands could not be broadcast together with shapes "
                f"{[_shape_of(x) for x in inputs]}"
            ) from None
        return SymbolicBlock(shape)

    def __array_function__(self, func: Any, types: Any, args: Any, kwargs: Any):
        handler = _HANDLED_FUNCTIONS.get(func)
        if handler is None:
            return NotImplemented
        return handler(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolicBlock(shape={self.shape})"


# ---------------------------------------------------------------------- #
# __array_function__ handlers                                            #
# ---------------------------------------------------------------------- #

_HANDLED_FUNCTIONS = {}


def _handles(numpy_function):
    def decorator(fn):
        _HANDLED_FUNCTIONS[numpy_function] = fn
        return fn

    return decorator


@_handles(np.concatenate)
def _concatenate(arrays, axis=0, **kwargs):
    arrays = list(arrays)
    if axis == 0 and arrays and all(
        type(a) is SymbolicBlock and len(a.shape) == 1 for a in arrays
    ):
        total = sum(a.size for a in arrays)
        return SymbolicBlock._new((total,), total)
    shapes = [_shape_of(a) for a in arrays]
    if not shapes:
        raise ValueError("need at least one block to concatenate")
    ndim = len(shapes[0])
    if axis is None:
        return SymbolicBlock((sum(int(np.prod(s)) for s in shapes),))
    if any(len(s) != ndim for s in shapes):
        raise ValueError(f"all blocks must have the same ndim, got {shapes}")
    axis = axis % ndim if ndim else 0
    for s in shapes[1:]:
        for d in range(ndim):
            if d != axis and s[d] != shapes[0][d]:
                raise ValueError(
                    f"all block dimensions except the concatenation axis "
                    f"must match, got {shapes}"
                )
    out = list(shapes[0])
    out[axis] = sum(s[axis] for s in shapes)
    return SymbolicBlock(tuple(out))


@_handles(np.array_split)
def _array_split(ary, sections, axis=0):
    shape = _shape_of(ary)
    if not isinstance(sections, (int, np.integer)):
        raise TypeError("symbolic array_split supports an integer section count only")
    p = int(sections)
    if p <= 0:
        raise ValueError("number of sections must be larger than 0")
    d = shape[axis]
    base, extra = divmod(d, p)
    out = []
    for j in range(p):
        piece = list(shape)
        piece[axis] = base + (1 if j < extra else 0)
        out.append(SymbolicBlock(tuple(piece)))
    return out


def _like_factory(a, dtype=None, shape=None, **kwargs):
    return SymbolicBlock(_shape_of(a) if shape is None else shape)


_HANDLED_FUNCTIONS[np.zeros_like] = _like_factory
_HANDLED_FUNCTIONS[np.empty_like] = _like_factory
_HANDLED_FUNCTIONS[np.ones_like] = _like_factory


@_handles(np.full_like)
def _full_like(a, fill_value, dtype=None, shape=None, **kwargs):
    return SymbolicBlock(_shape_of(a) if shape is None else shape)


@_handles(np.transpose)
def _transpose(a, axes=None):
    shape = _shape_of(a)
    if axes is None:
        return SymbolicBlock(shape[::-1])
    return SymbolicBlock(tuple(shape[ax] for ax in axes))


# ---------------------------------------------------------------------- #
# backend objects                                                        #
# ---------------------------------------------------------------------- #


class Backend:
    """One execution mode: how blocks are materialized.

    ``name`` identifies the backend in ledgers / CLI flags; ``verifies``
    says whether results carry real elements that can be checked against a
    reference product.
    """

    name: str = "abstract"
    verifies: bool = False

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        raise NotImplementedError

    def empty(self, shape: Sequence[int]) -> Any:
        raise NotImplementedError

    def zeros(self, shape: Sequence[int]) -> Any:
        raise NotImplementedError

    def matmul(self, a: Any, b: Any, semiring: Any = None) -> Any:
        """The block product of ``a`` and ``b`` under ``semiring``.

        ``semiring`` is a name, :class:`~repro.machine.semiring.Semiring`
        instance, or ``None`` (= ``plus_times``).  The cost model never
        calls this — flops are charged from shapes — so the dispatch only
        decides the *numerics* of the result.
        """
        raise NotImplementedError

    def operands(self, shape, seed: int = 0, kind: str = "random") -> Tuple[Any, Any]:
        """An ``(A, B)`` operand pair for ``shape = (n1, n2, n3)``."""
        raise NotImplementedError

    def corrupt_block(self, block: Any, rng, mode: str = "bitflip") -> Any:
        """A damaged copy of ``block``, as in-transit corruption would leave it.

        Used only by the fault-injection layer (:mod:`repro.machine.faults`);
        the damage must always change the block's
        :func:`~repro.machine.faults.payload_fingerprint` so the detection
        layer can prove it catches every injected corruption.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class DataBackend(Backend):
    """Real numpy payloads; numerically verified results (the default)."""

    name = "data"
    verifies = True

    def asarray(self, x: Any, dtype: Any = None) -> np.ndarray:
        return np.asarray(x) if dtype is None else np.asarray(x, dtype=dtype)

    def empty(self, shape: Sequence[int]) -> np.ndarray:
        return np.empty(shape)

    def zeros(self, shape: Sequence[int]) -> np.ndarray:
        return np.zeros(shape)

    def matmul(self, a: Any, b: Any, semiring: Any = None) -> np.ndarray:
        """Run the semiring's scalar kernel on real numpy operands."""
        from .semiring import resolve_semiring

        return resolve_semiring(semiring).matmul_data(a, b)

    def operands(self, shape, seed: int = 0, kind: str = "random"):
        from ..core.shapes import ProblemShape
        from ..workloads.generators import operand_pair

        if not hasattr(shape, "dims"):
            shape = ProblemShape(*tuple(shape))
        return operand_pair(shape, kind=kind, seed=seed)

    def corrupt_block(self, block: Any, rng, mode: str = "bitflip") -> np.ndarray:
        """Flip one bit of (or write NaN into) one element of a copy of ``block``.

        ``mode="nan"`` falls back to a bit flip on non-float dtypes, where
        NaN does not exist.  Either damage changes the payload bytes, so the
        CRC32 fingerprint always catches it.
        """
        out = np.array(block, copy=True)
        if out.size == 0:
            raise ValueError("cannot corrupt an empty block")
        if mode == "nan" and np.issubdtype(out.dtype, np.floating):
            out.reshape(-1)[rng.randrange(out.size)] = np.nan
            return out
        raw = out.reshape(-1).view(np.uint8)
        bit = rng.randrange(raw.size * 8)
        raw[bit // 8] ^= np.uint8(1 << (bit % 8))
        return out


class SymbolicBackend(Backend):
    """Shape-descriptor payloads; exact cost accounting, no elements."""

    name = "symbolic"
    verifies = False

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        return as_block(x, dtype=dtype)

    def empty(self, shape: Sequence[int]) -> SymbolicBlock:
        return SymbolicBlock(shape)

    def zeros(self, shape: Sequence[int]) -> SymbolicBlock:
        return SymbolicBlock(shape)

    def matmul(self, a: Any, b: Any, semiring: Any = None) -> Any:
        """Shape-rule product: identical in every semiring, zero-copy.

        A :class:`SymbolicBlock` has no elements, and the matmul *shape*
        rule does not depend on the scalar semiring, so symbolic runs need
        no dispatch — which is what keeps them cost-identical by
        construction.
        """
        return a @ b

    def operands(self, shape, seed: int = 0, kind: str = "random"):
        return symbolic_operands(shape)

    def corrupt_block(self, block: Any, rng, mode: str = "bitflip") -> SymbolicBlock:
        """Perturb the block's shape — the symbolic analogue of bit damage.

        A shape descriptor has no bits to flip; what corruption *can* do to
        it is make the receiver see a block of the wrong extent, which is
        exactly what a length-prefix error would do on a real wire.  One
        dimension grows by one element, so the shape fingerprint always
        changes.  ``mode`` is accepted for signature compatibility.
        """
        shape = tuple(block.shape)
        if not shape or block.size == 0:
            return SymbolicBlock((int(block.size) + 1,))
        dim = rng.randrange(len(shape))
        return SymbolicBlock(shape[:dim] + (shape[dim] + 1,) + shape[dim + 1:])


DATA_BACKEND = DataBackend()
SYMBOLIC_BACKEND = SymbolicBackend()

BACKENDS = {
    DATA_BACKEND.name: DATA_BACKEND,
    SYMBOLIC_BACKEND.name: SYMBOLIC_BACKEND,
}


def resolve_backend(backend: Union[None, str, Backend]) -> Backend:
    """Accept a backend name, instance, or ``None`` (= data)."""
    if backend is None:
        return DATA_BACKEND
    if isinstance(backend, Backend):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        ) from None


def is_symbolic(x: Any) -> bool:
    """True when ``x`` is a shape-only block (no elements)."""
    return isinstance(x, SymbolicBlock)


def as_block(x: Any, dtype: Any = None) -> Any:
    """Backend-polymorphic ``np.asarray``: symbolic blocks pass through."""
    if type(x) is SymbolicBlock or isinstance(x, SymbolicBlock):
        return x
    return np.asarray(x) if dtype is None else np.asarray(x, dtype=dtype)


def empty_block(shape: Sequence[int], like: Any) -> Any:
    """An uninitialized block of ``shape``, in the same backend as ``like``."""
    if isinstance(like, SymbolicBlock):
        return SymbolicBlock(shape)
    return np.empty(shape)


def zeros_block(shape: Sequence[int], like: Any) -> Any:
    """A zero block of ``shape``, in the same backend as ``like``.

    Symbolically a zero block is just its shape — additions into it
    propagate shapes identically either way.
    """
    if isinstance(like, SymbolicBlock):
        return SymbolicBlock(shape)
    return np.zeros(shape)


def backend_for(*blocks: Any) -> Backend:
    """Infer the backend from operand types (symbolic wins)."""
    for b in blocks:
        if isinstance(b, SymbolicBlock):
            return SYMBOLIC_BACKEND
    return DATA_BACKEND


def corrupt_block(block: Any, rng, mode: str = "bitflip") -> Any:
    """Backend-polymorphic block corruption (see ``Backend.corrupt_block``)."""
    return backend_for(block).corrupt_block(block, rng, mode=mode)


def symbolic_operands(shape) -> Tuple[SymbolicBlock, SymbolicBlock]:
    """Shape-only ``(A, B)`` operands for ``shape = (n1, n2, n3)``."""
    n1, n2, n3 = shape.dims if hasattr(shape, "dims") else tuple(shape)
    return SymbolicBlock((int(n1), int(n2))), SymbolicBlock((int(n2), int(n3)))
