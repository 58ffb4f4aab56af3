"""Abstract syntax for (parameterized) conjunctive queries.

A conjunctive query has the Datalog form::

    λ p1, ..., pk .  Q(x1, ..., xn) :- R1(...), ..., Rm(...), y = c, ...

* the head ``Q(x1, ..., xn)`` names the query and lists its output terms,
* the body is a conjunction of relational atoms over base (or view)
  predicates plus equality atoms binding a variable to a constant,
* the optional λ-prefix declares *parameters*: distinguished variables that
  must appear in the head and that partition the view's tuples into citable
  units (paper, Section 2).

Instances are immutable and hashable so they can be used as dictionary keys
throughout the rewriting and citation engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.errors import QueryError


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
class Term:
    """Base class for terms appearing in atoms (variables and constants)."""

    __slots__ = ()

    def is_variable(self) -> bool:
        """Return ``True`` for variables, ``False`` for constants."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A named query variable."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("variable name must be non-empty")

    def is_variable(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name})"


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """A constant value (string, number, bool or None)."""

    value: object

    def is_variable(self) -> bool:
        return False

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Atom:
    """A relational atom ``R(t1, ..., tk)``."""

    predicate: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.predicate:
            raise QueryError("atom predicate must be non-empty")
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if not isinstance(term, Term):
                raise QueryError(f"atom term {term!r} is not a Term")

    @property
    def arity(self) -> int:
        """Number of terms."""
        return len(self.terms)

    def variables(self) -> tuple[Variable, ...]:
        """Variables occurring in the atom, in order with duplicates."""
        return tuple(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> tuple[Constant, ...]:
        """Constants occurring in the atom."""
        return tuple(t for t in self.terms if isinstance(t, Constant))

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a variable substitution and return the new atom."""
        return Atom(
            self.predicate,
            tuple(mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms),
        )

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True, slots=True)
class EqualityAtom:
    """An equality atom ``x = c`` binding a variable to a constant.

    The paper uses these in citation queries, e.g.::

        CV2(D) :- D = "IUPHAR/BPS Guide to PHARMACOLOGY..."
    """

    variable: Variable
    constant: Constant

    def substitute(self, mapping: Mapping[Variable, Term]) -> "EqualityAtom | None":
        """Apply a substitution.

        Returns ``None`` when the variable is mapped to an equal constant (the
        atom becomes trivially true) and raises :class:`QueryError` when it is
        mapped to a different constant (the query becomes unsatisfiable).
        """
        target = mapping.get(self.variable, self.variable)
        if isinstance(target, Constant):
            if target == self.constant:
                return None
            raise QueryError(
                f"substitution makes equality atom unsatisfiable: "
                f"{self.variable} = {self.constant} vs {target}"
            )
        return EqualityAtom(target, self.constant)

    def __str__(self) -> str:
        return f"{self.variable} = {self.constant}"


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------
class ConjunctiveQuery:
    """An (optionally parameterized) conjunctive query.

    Parameters
    ----------
    head:
        The head atom.  Its predicate is the query name.
    body:
        Relational body atoms.
    equalities:
        Equality atoms binding variables to constants.
    parameters:
        λ-parameters.  Each must be a variable occurring in the head
        (paper: "The parameters must appear in the head of the queries").
    """

    __slots__ = ("head", "body", "equalities", "parameters", "_hash")

    def __init__(
        self,
        head: Atom,
        body: Iterable[Atom],
        equalities: Iterable[EqualityAtom] = (),
        parameters: Iterable[Variable] = (),
    ) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "equalities", tuple(equalities))
        object.__setattr__(self, "parameters", tuple(parameters))
        object.__setattr__(self, "_hash", None)
        self._validate()

    def __setattr__(self, *_args: object) -> None:  # pragma: no cover
        raise AttributeError("ConjunctiveQuery is immutable")

    # -- validation -------------------------------------------------------
    def _validate(self) -> None:
        if not self.body and not self.equalities:
            raise QueryError(f"query {self.name!r} has an empty body")
        head_vars = set(self.head.variables())
        bound = self.body_variables() | {eq.variable for eq in self.equalities}
        unsafe = head_vars - bound
        if unsafe:
            raise QueryError(
                f"query {self.name!r} is unsafe: head variables {sorted(v.name for v in unsafe)} "
                "do not occur in the body"
            )
        for param in self.parameters:
            if param not in head_vars:
                raise QueryError(
                    f"parameter {param.name!r} of query {self.name!r} must appear in the head"
                )

    # -- introspection ------------------------------------------------------
    @property
    def name(self) -> str:
        """The query name (head predicate)."""
        return self.head.predicate

    @property
    def head_terms(self) -> tuple[Term, ...]:
        """Terms of the head atom."""
        return self.head.terms

    @property
    def is_parameterized(self) -> bool:
        """``True`` when the query declares λ-parameters."""
        return bool(self.parameters)

    def head_variables(self) -> set[Variable]:
        """Distinguished variables (those in the head)."""
        return set(self.head.variables())

    def body_variables(self) -> set[Variable]:
        """Variables occurring in relational body atoms."""
        out: set[Variable] = set()
        for atom in self.body:
            out.update(atom.variables())
        return out

    def variables(self) -> set[Variable]:
        """All variables of the query."""
        return (
            self.head_variables()
            | self.body_variables()
            | {eq.variable for eq in self.equalities}
        )

    def existential_variables(self) -> set[Variable]:
        """Body variables that do not occur in the head."""
        return self.body_variables() - self.head_variables()

    def predicates(self) -> set[str]:
        """Predicate names used in the body."""
        return {atom.predicate for atom in self.body}

    def atoms_with_variable(self, variable: Variable) -> tuple[Atom, ...]:
        """Body atoms in which *variable* occurs."""
        return tuple(a for a in self.body if variable in a.variables())

    def join_variables(self) -> set[Variable]:
        """Variables occurring in more than one body atom."""
        seen: dict[Variable, int] = {}
        for atom in self.body:
            for variable in set(atom.variables()):
                seen[variable] = seen.get(variable, 0) + 1
        return {v for v, n in seen.items() if n > 1}

    def constant_bindings(self) -> dict[Variable, Constant]:
        """Mapping of variables bound to constants via equality atoms."""
        return {eq.variable: eq.constant for eq in self.equalities}

    # -- transformation -------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to head and body; equalities may disappear."""
        new_equalities = []
        for eq in self.equalities:
            substituted = eq.substitute(mapping)
            if substituted is not None:
                new_equalities.append(substituted)
        new_params = []
        for param in self.parameters:
            target = mapping.get(param, param)
            if isinstance(target, Variable):
                new_params.append(target)
        return ConjunctiveQuery(
            self.head.substitute(mapping),
            tuple(a.substitute(mapping) for a in self.body),
            tuple(new_equalities),
            tuple(new_params),
        )

    def with_constants(self, values: Mapping[tuple, Term]) -> "ConjunctiveQuery":
        """Replace the head and body constants *values* keys by ``(type, value)``."""

        def replaced(atom: Atom) -> Atom:
            return Atom(atom.predicate, tuple(
                values.get((type(t.value), t.value), t) if isinstance(t, Constant) else t
                for t in atom.terms
            ))

        return ConjunctiveQuery(replaced(self.head), map(replaced, self.body), self.equalities,
                                self.parameters)

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable by appending *suffix* (for fresh copies)."""
        mapping = {v: Variable(f"{v.name}{suffix}") for v in self.variables()}
        return self.substitute(mapping)

    def with_head(self, head: Atom) -> "ConjunctiveQuery":
        """Return a copy with a different head atom."""
        return ConjunctiveQuery(head, self.body, self.equalities, self.parameters)

    def with_body(self, body: Sequence[Atom]) -> "ConjunctiveQuery":
        """Return a copy with a different body (equalities preserved)."""
        return ConjunctiveQuery(self.head, tuple(body), self.equalities, self.parameters)

    def without_parameters(self) -> "ConjunctiveQuery":
        """Return the same query with its λ-parameters dropped.

        The paper specifies that parameters are ignored during rewriting.
        """
        if not self.parameters:
            return self
        return ConjunctiveQuery(self.head, self.body, self.equalities, ())

    def inline_equalities(self) -> "ConjunctiveQuery":
        """Substitute equality-bound variables by their constants where possible.

        Head occurrences keep the variable (so the output arity does not
        change), but body occurrences are replaced, which simplifies
        containment reasoning.
        """
        if not self.equalities:
            return self
        mapping: dict[Variable, Term] = dict(self.constant_bindings())
        new_body = tuple(a.substitute(mapping) for a in self.body)
        return ConjunctiveQuery(self.head, new_body, self.equalities, self.parameters)

    def canonical_instance(self) -> dict[str, set[tuple]]:
        """The canonical (frozen) database of the query body.

        Every variable becomes a distinct constant token; used for
        containment checking via the canonical-database method.
        """
        instance: dict[str, set[tuple]] = {}
        bindings = self.constant_bindings()
        for atom in self.body:
            row = []
            for term in atom.terms:
                if isinstance(term, Constant):
                    row.append(term.value)
                elif term in bindings:
                    row.append(bindings[term].value)
                else:
                    row.append(f"?{term.name}")
            instance.setdefault(atom.predicate, set()).add(tuple(row))
        return instance

    # -- dunder ------------------------------------------------------------------
    def _key(self) -> tuple:
        return (self.head, self.body, self.equalities, self.parameters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._key())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        parts = [str(a) for a in self.body] + [str(e) for e in self.equalities]
        prefix = ""
        if self.parameters:
            prefix = "λ " + ", ".join(p.name for p in self.parameters) + ". "
        return f"{prefix}{self.head} :- {', '.join(parts)}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self})"


# ---------------------------------------------------------------------------
# Helpers used across the library
# ---------------------------------------------------------------------------
_fresh_counter = itertools.count()


def fresh_variable(stem: str = "x") -> Variable:
    """Return a globally fresh variable named ``_<stem><n>``."""
    return Variable(f"_{stem}{next(_fresh_counter)}")


def make_query(
    name: str,
    head_terms: Sequence[str | object],
    body: Sequence[tuple[str, Sequence[str | object]]],
    parameters: Sequence[str] = (),
    equalities: Mapping[str, object] | None = None,
) -> ConjunctiveQuery:
    """Convenience constructor from plain strings.

    Strings are treated as variables; any other value is a constant.  Use
    :class:`Constant` explicitly for string constants.

    Example
    -------
    >>> q = make_query("Q", ["FName"],
    ...                [("Family", ["FID", "FName", "Desc"]),
    ...                 ("FamilyIntro", ["FID", "Text"])])
    """

    def term(value: object) -> Term:
        if isinstance(value, Term):
            return value
        if isinstance(value, str):
            return Variable(value)
        return Constant(value)

    head = Atom(name, tuple(term(t) for t in head_terms))
    atoms = tuple(Atom(pred, tuple(term(t) for t in terms)) for pred, terms in body)
    eq_atoms = tuple(
        EqualityAtom(Variable(var), value if isinstance(value, Constant) else Constant(value))
        for var, value in (equalities or {}).items()
    )
    params = tuple(Variable(p) for p in parameters)
    return ConjunctiveQuery(head, atoms, eq_atoms, params)


def variables_of(atoms: Iterable[Atom]) -> Iterator[Variable]:
    """Yield the variables of a collection of atoms (with repetitions)."""
    for atom in atoms:
        yield from atom.variables()
