"""Free-group words and finite presentations.

Words are tuples of nonzero ints: letter +(i+1) is generator i, -(i+1) its
inverse.  The printed syntax is space-separated letters with optional
integer powers, e.g. "x1 x2 x1^-1 x3^-1"; single-letter names a..z are
accepted on input when the presentation has at most 26 generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError, malformed, require_int

Word = tuple[int, ...]


def free_reduce(word) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word) -> Word:
    return tuple(-letter for letter in reversed(word))


def cyclic_reduce(word) -> Word:
    word = free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def relator_key(word) -> Word:
    """Canonical form of a relator up to cyclic rotation and inversion."""
    word = cyclic_reduce(word)
    if not word:
        return ()
    candidates = []
    for w in (word, invert_word(word)):
        for k in range(len(w)):
            candidates.append(w[k:] + w[:k])
    return min(candidates)


def default_labels(ngens: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(ngens))


def _file_labels(labels, ngens: int) -> tuple[str, ...]:
    """Generator names read from a file: a list of ngens distinct non-empty
    strings without whitespace or '^', the separators of `parse_word`."""
    if not (isinstance(labels, list) and len(labels) == ngens
            and all(isinstance(name, str) and name.split() == [name] and "^" not in name
                    for name in labels)
            and len(set(labels)) == ngens):
        raise ValidationError(
            f"labels {labels!r} are not {ngens} distinct names without whitespace or '^'")
    return tuple(labels)


def format_word(word, labels) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        letter = word[i]
        j = i
        while j < len(word) and word[j] == letter:
            j += 1
        count = j - i
        name = labels[abs(letter) - 1]
        power = count if letter > 0 else -count
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)


def parse_word(text: str, labels) -> Word:
    lookup = {name: i for i, name in enumerate(labels)}
    if len(labels) <= 26:
        for i in range(len(labels)):
            lookup.setdefault(chr(ord("a") + i), i)
    out: list[int] = []
    text = text.strip()
    if text in ("", "1"):
        return ()
    for token in text.split():
        name, _, power_text = token.partition("^")
        if name not in lookup:
            raise ValidationError(f"unknown generator {name!r} in word {text!r}")
        try:
            power = int(power_text) if power_text else 1
        except ValueError as exc:
            raise ValidationError(f"bad power in token {token!r}") from exc
        letter = lookup[name] + 1
        out.extend([letter if power > 0 else -letter] * abs(power))
    return free_reduce(tuple(out))


@dataclass(frozen=True)
class Presentation:
    """A finitely presented group: generator count plus relator words.

    Relators are stored freely reduced, without duplicates (up to cyclic
    rotation and inversion) and without empty words.
    """

    ngens: int
    relators: tuple[Word, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if require_int(self.ngens, "generator count {value!r} is not an integer") < 0:
            raise ValidationError(f"generator count {self.ngens!r} is not >= 0")
        if self.labels is not None and len(self.labels) != self.ngens:
            raise ValidationError("label count does not match generator count")
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ValidationError(f"letter {letter} out of range in {rel}")
            if free_reduce(rel) != rel:
                raise ValidationError(f"relator {rel} is not freely reduced")
            if not rel:
                raise ValidationError("empty relator stored")

    @classmethod
    def make(cls, ngens, relators, labels=None) -> "Presentation":
        seen = set()
        cleaned = []
        for rel in relators:
            rel = free_reduce(tuple(rel))
            if not rel:
                continue
            key = relator_key(rel)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(rel)
        return cls(ngens, tuple(cleaned), tuple(labels) if labels else None)

    def label_list(self) -> tuple[str, ...]:
        return self.labels or default_labels(self.ngens)

    def format_relators(self) -> list[str]:
        labels = self.label_list()
        return [format_word(rel, labels) for rel in self.relators]

    def to_json(self) -> dict:
        return {
            "generators": self.ngens,
            "relators": self.format_relators(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        with malformed("presentation"):
            ngens = require_int(
                data["generators"], "generator count {value!r} is not an integer"
            )
            given = _file_labels(data["labels"], ngens) if "labels" in data else None
            labels = given or default_labels(ngens)
            if not isinstance(data["relators"], list):
                raise ValidationError("relators must be a list of words")
            relators = [parse_word(text, labels) for text in data["relators"]]
            return cls.make(ngens, relators, given)

    def exponent_matrix(self) -> list[list[int]]:
        """Abelianized relators: one integer row per relator."""
        rows = []
        for rel in self.relators:
            row = [0] * self.ngens
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows

    def __repr__(self):
        return f"Presentation(ngens={self.ngens}, relators={len(self.relators)})"
