"""The text of aligned numpy columns, a block of rows at a time.

Each field of a row has a fixed-width slot of uint32 words in one row
matrix, with the text between fields in place. Unused bytes are NUL, and
one bytes.translate per block drops them. Numbers are written from 4-digit
groups looked up in tables:

- an int column of values >= 0, up to the uint64 maximum, as str() writes it;
- a float64 column as '%.9g' writes it, or with json=True as json writes the
  float nearest that 9-digit decimal (an integral one keeps '.0'). The
  kernel writes 0 and each finite value whose 9-digit exponent is in
  [-4, 8] (the fixed-point range of '%.9g') and which is not within 1e-6 of
  a rounding tie. It declines the others: non-finite, outside that range,
  or near a tie. The caller's fallback writes those into their slots.
- a labelled-codes column, a pair (codes, labels); row i holds
  labels[codes[i]]. A label is non-empty printable ASCII without ',', '"'
  or '\\', so csv.writer writes it as it is and json between quotes.

The package imports this module only to write columns, so that no other
command builds its tables.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _table(texts) -> np.ndarray:
    """One uint32 word per text of at most 4 bytes, NUL-padded."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), dtype=np.uint32)


def _groups() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each 4-digit group's text: whole, without leading zeros and without trailing ones."""
    k = np.arange(10000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    text = (digits + ord("0")).astype(np.uint8)
    lead = np.where(np.cumsum(digits, axis=1) > 0, text, 0).astype(np.uint8)
    trail = np.where(np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0, text, 0).astype(np.uint8)
    return tuple(t.view(np.uint32).reshape(-1) for t in (text, lead, trail))


_WHOLE, _LEADING, _TRAILING = _groups()
# A group of 4 digits at index k, or at k + 10000 when the group is not the
# first of its number (so its zeros stand): without leading zeros (all NUL
# for 0), the last group of an integer (0 is "0"), or a fraction's group
# without trailing zeros.
_LEAD = np.concatenate([_LEADING, _WHOLE])
_LAST = _LEAD.copy()
_LAST[0] = _table(["\0\0\0" "0"])[0]
_TRAIL = np.concatenate([_TRAILING, _WHOLE])
# The sign and the first of 9 integer digits (NUL for 0), at digit + 10 * negative.
_SIGN_DIGIT = _table(s + "\0\0" + (str(d) if d else "") for s in ("\0", "-") for d in range(10))
# The point of a number without, and with, a fraction. json writes an
# integral float with '.0'.
_POINT = {False: _table(["", "."]), True: _table([".0", "."])}
# _POW[k + 2] is 10**k, exact from k = 0.
_POW = np.array([10.0**k if k < 0 else float(10**k) for k in range(-2, 15)])

# A float's words: the sign and the first integer digit, the other 8 integer
# digits, the point and a 12-digit fraction.
FLOAT_WORDS = 7


def _group(q, g, h, unit, b, out, table) -> None:
    """Write into out the 4 digits of q from unit up, whole if digits come before them.

    g, h and b are buffers of q's length; q, g and h are of one int dtype.
    """
    np.floor_divide(q, unit, out=h)
    np.floor_divide(h, 10**4, out=g)  # the digits before the group
    np.not_equal(g, 0, out=b)
    g *= 10**4
    h -= g
    np.add(h, 10**4, out=h, where=b)
    np.take(table, h.view(np.int64), out=out, mode="clip")  # a uint64 index would be copied


class _Floats:
    """The float64 kernel, on buffers of n values."""

    def __init__(self, n: int, json: bool):
        self.point = _POINT[json]
        self.values = np.empty(n)
        self.f = np.empty((4, n))
        self.i = np.empty((4, n), dtype=np.int64)
        self.b = np.empty((3, n), dtype=bool)
        self.words = np.empty((FLOAT_WORDS, n), dtype=np.uint32)

    def __call__(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(FLOAT_WORDS, len(v)) words of v's text, and where v is declined.

        A declined value's words are garbage.
        """
        n = len(v)
        a, t, s, m = (buf[:n] for buf in self.f)
        i, q, g, h = (buf[:n] for buf in self.i)
        ok, b, declined = (buf[:n] for buf in self.b)
        words = self.words[:, :n]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.abs(v, out=a)
            np.log10(a, out=t)  # NaN, or +-inf for 0 and inf
            np.floor(t, out=t)
            np.fmax(t, -5, out=t)
            # The decimal exponent e of a in [-5, 9]. Within a few ulps of a
            # power of ten it may be one off, and s is then within as much of
            # 1e8 or 1e9, where the rounding below still gives the right digits.
            np.fmin(t, 9, out=t)
            np.subtract(10, t, out=t)
            np.copyto(i, t, casting="unsafe")
            np.take(_POW, i, out=t, mode="clip")  # 10**(8 - e), exact unless e = 9
            np.multiply(a, t, out=s)  # in [1e8, 1e9) after one rounding (at most 6e-8)
            np.rint(s, out=m)  # the 9 digits; 1e9 where a rounds up to a power of ten
            np.subtract(s, m, out=s)
            np.abs(s, out=s)
            np.less_equal(s, 0.5 - 1e-6, out=ok)  # no tie within 1e-6: m is '%.9g''s
            np.subtract(m, 5.5e8, out=s)
            np.abs(s, out=s)
            np.less_equal(s, 4.5e8, out=b)  # m in [1e8, 1e9]
        ok &= b
        np.greater_equal(a, 9.999999995e-5, out=b)  # rounds to 1e-4 or more
        ok &= b
        np.less(a, 999999999.5, out=b)  # rounds below 1e9
        ok &= b
        np.logical_not(ok, out=b)
        np.not_equal(a, 0, out=declined)
        declined &= b
        np.copyto(m, 0, where=b)
        # m * 10**(e - 8) = q + f / 1e12 with integers q < 1e9 and f < 1e12. Each
        # step is exact on integers below 2**53; m = 1e9 at e = -5 gives f = 1e8.
        np.divide(m, t, out=s)
        np.floor(s, out=s)
        np.copyto(q, s, casting="unsafe")
        np.multiply(s, t, out=s)
        np.subtract(m, s, out=m)
        np.subtract(16, i, out=i)
        np.take(_POW, i, out=t, mode="clip")  # 10**(4 + e)
        np.multiply(m, t, out=m)
        np.copyto(i, m, casting="unsafe")  # f
        # The integer part: digit 1, digits 2-5, digits 6-9.
        np.floor_divide(q, 10**8, out=g)
        np.signbit(v, out=b)
        np.multiply(b, 10, out=h)
        h += g
        np.take(_SIGN_DIGIT, h, out=words[0], mode="clip")
        _group(q, g, h, 10**4, b, words[1], _LEAD)
        _group(q, g, h, 1, b, words[2], _LAST)
        # The fraction: its point, then digits 1-4, 5-8 and 9-12.
        np.not_equal(i, 0, out=b)
        np.take(self.point, b.view(np.int8), out=words[3], mode="clip")
        for power, word in ((10**8, words[4]), (10**4, words[5])):
            np.floor_divide(i, power, out=g)
            np.multiply(g, power, out=h)
            np.subtract(i, h, out=i)  # the digits after this group
            np.not_equal(i, 0, out=b)
            np.add(g, 10**4, out=g, where=b)
            np.take(_TRAIL, g, out=word, mode="clip")
        np.take(_TRAIL, i, out=words[6], mode="clip")
        return words, declined


class _Ints:
    """The int kernel for one column of values >= 0."""

    def __init__(self, column: np.ndarray):
        top = int(column.max()) if len(column) else 0
        self.groups = -(-len(str(top)) // 4)  # of 4 digits, in the longest value

    def reserve(self, n: int) -> None:
        """Buffers for n values."""
        self.u = np.empty((3, n), dtype=np.uint64)
        self.b = np.empty(n, dtype=bool)
        self.words = np.empty((self.groups, n), dtype=np.uint32)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """(groups, len(v)) words of v's text."""
        n = len(v)
        u, g, h = (buf[:n] for buf in self.u)
        b, words = self.b[:n], self.words[:, :n]
        np.copyto(u, v, casting="unsafe")
        for k in range(self.groups):
            table = _LAST if k == self.groups - 1 else _LEAD
            _group(u, g, h, 10 ** (4 * (self.groups - 1 - k)), b, words[k], table)
        return words


def _aligned(text: str) -> np.ndarray:
    """text NUL-padded on the left to whole uint32 words."""
    raw = text.encode()
    return np.frombuffer(raw.rjust(-(-len(raw) // 4) * 4, b"\0"), dtype=np.uint32)


class Rows:
    """The text of the rows of aligned columns, n rows in all, checked before any is formatted.

    A column is a 1-D numpy array of ints >= 0 or float64, or a (codes,
    labels) pair of a 1-D numpy int array and a list or tuple of labels (see
    the module). Any other column raises TypeError; a negative int, another
    label, a code outside range(len(labels)), columns of unequal length or a
    before of another length, ValueError. before[j] is the ASCII text ahead
    of field j and after the ASCII text that ends a row; neither holds a
    NUL. fallback gives the text of a declined float, in at most
    4 * FLOAT_WORDS bytes. json selects the text of floats and labels. Call
    it with (start, stop) for the text of those rows.
    """

    def __init__(
        self,
        columns: Sequence[np.ndarray | tuple[np.ndarray, Sequence[str]]],
        before: Sequence[str],
        after: str,
        fallback: Callable[[float], str],
        json: bool,
    ):
        if len(before) != len(columns):
            raise ValueError(f"{len(before)} header names for {len(columns)} columns")
        self.fallback, self.json = fallback, json
        self.floats, self.ints, self.strs = [], [], []  # each with its slot's word offset
        template = []  # one row's words, with the text between fields in place
        lengths = set()
        for j, (column, literal) in enumerate(zip(columns, before)):
            pair = isinstance(column, tuple) and len(column) == 2
            codes, labels = column if pair else (column, None)
            array = isinstance(codes, np.ndarray)
            kind = codes.dtype.kind if array and codes.ndim == 1 else ""
            plain_float = labels is None and kind == "f" and codes.dtype == np.float64
            if kind not in ("i", "u") and not plain_float:
                what = f"{codes.ndim}-D {codes.dtype} array" if array else type(codes).__name__
                which = f"column {j}'s codes are" if labels is not None else f"column {j} is"
                raise TypeError(
                    "columns must be 1-D numpy arrays of ints or float64, or (int codes, labels) "
                    f"pairs; {which} a {what}"
                )
            lengths.add(len(codes))
            template.append(_aligned(literal))
            offset = sum(map(len, template))
            if plain_float:
                self.floats.append((codes, offset))
                width = FLOAT_WORDS
            elif labels is None:
                if codes.size and codes.min() < 0:
                    raise ValueError(f"column {j} has ints below 0")
                ints = _Ints(codes)
                self.ints.append((codes, ints, offset))
                width = ints.groups
            else:
                if not isinstance(labels, (list, tuple)) or any(
                    not isinstance(s, str) for s in labels
                ):
                    raise TypeError(f"labels must be a list or tuple of str; column {j}'s are not")
                for s in labels:
                    if not (s and s.isascii() and s.isprintable()) or {",", '"', "\\"} & set(s):
                        raise ValueError(
                            "labels must be non-empty printable ASCII without ',', '\"' or '\\'; "
                            f"column {j} has {s!r}"
                        )
                if codes.size and not 0 <= codes.min() <= codes.max() < len(labels):
                    raise ValueError(f"column {j} has codes outside range({len(labels)})")
                # Each label's text, NUL-padded to the longest's whole words.
                raw = [(f'"{s}"' if json else s).encode() for s in labels]
                width = -(-max(map(len, raw), default=0) // 4)
                table = b"".join(b.ljust(4 * width, b"\0") for b in raw)
                table = np.frombuffer(table, dtype=np.uint32).reshape(len(raw), width)
                self.strs.append((codes, table, offset))
            template.append(np.zeros(width, dtype=np.uint32))
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal length: {sorted(lengths)}")
        self.n = lengths.pop() if lengths else 0
        template.append(_aligned(after))
        self.template = np.concatenate(template)
        self.capacity = 0

    def _reserve(self, n: int) -> None:
        """Buffers for blocks of up to n rows."""
        self.capacity = n
        self.matrix = np.empty((n, len(self.template)), dtype=np.uint32)
        self.matrix[:] = self.template
        self.kernel = _Floats(n * len(self.floats), self.json)
        for _, ints, _ in self.ints:
            ints.reserve(n)

    def _float_words(self, start: int, stop: int) -> np.ndarray:
        """(FLOAT_WORDS, rows) words of each float column in turn, the declined filled in."""
        n = stop - start
        values = self.kernel.values[: n * len(self.floats)]
        for k, (column, _) in enumerate(self.floats):
            values[k * n : (k + 1) * n] = column[start:stop]
        words, declined = self.kernel(values)
        declined = np.flatnonzero(declined)
        if len(declined):
            size = 4 * FLOAT_WORDS
            texts = list(map(self.fallback, values[declined].tolist()))
            if max(map(len, texts)) > size:
                raise ValueError(f"a fallback text is longer than {size} bytes")
            padded = np.array(texts, dtype=f"S{size}").view(np.uint32)
            words[:, declined] = padded.reshape(-1, FLOAT_WORDS).T
        return words

    def __call__(self, start: int, stop: int) -> str:
        """Rows start to stop as text."""
        n = stop - start
        if n > self.capacity:
            self._reserve(n)
        rows = self.matrix[:n]
        if self.floats:
            words = self._float_words(start, stop)
            for k, (_, offset) in enumerate(self.floats):
                rows[:, offset : offset + FLOAT_WORDS] = words[:, k * n : (k + 1) * n].T
        for column, ints, offset in self.ints:
            words = ints(column[start:stop])
            rows[:, offset : offset + len(words)] = words.T
        for codes, table, offset in self.strs:
            rows[:, offset : offset + table.shape[1]] = table[codes[start:stop]]
        return rows.tobytes().translate(None, b"\0").decode()
