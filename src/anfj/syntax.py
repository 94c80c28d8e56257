"""Surface syntax, labeling, and static tables for ANFJ programs.

ANFJ is a tiny class-based language in A-normal form: every operand of an
expression is a bare variable, so each statement performs at most one
interesting operation. Statements are assignments, returns, throws, and
try/catch blocks; expressions are variable reads, field reads, method
invocations, allocations, and casts. Fields are written only by
constructors.

This module parses source text into labeled statements. One regular
expression splits the source into tokens, each a plain string; a
ParseError's line and column are worked out from the source only when
it is raised, so parsing a valid program computes none. The parser
gives each statement an integer label as it reads it, in program order,
and appends the synthetic PopHandler statement to every try body. It
then derives the static tables the interpreters need: statement
successors, the flattened class table, subtyping, and per-label
live-variable sets (a statement inside a try body also flows to the
handler head, as an exception would). The parser and every walk keep
their own stacks, so try blocks may nest to any depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

OBJECT = "Object"
THIS = "this"

KEYWORDS = {"class", "extends", "super", "this", "new", "return", "throw", "try", "catch"}


class AnfjError(Exception):
    """Base error carrying an optional source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(message + where)


class ParseError(AnfjError):
    pass


class ElaborationError(AnfjError):
    pass


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class VarRef:
    var: str


@dataclass(frozen=True)
class FieldRef:
    var: str
    field: str


@dataclass(frozen=True)
class Invoke:
    receiver: str
    method: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class New:
    class_name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Cast:
    class_name: str
    var: str


Exp = VarRef | FieldRef | Invoke | New | Cast


# ---------------------------------------------------------------------------
# Statements
#
# Statement identity is the label: the parser gives every statement a
# label unique program-wide, so equality and hashing go through it.

class Stmt:
    __slots__ = ()
    label: int

    def __eq__(self, other):
        if not isinstance(other, Stmt):
            return NotImplemented
        return self.label == other.label

    def __hash__(self):
        return hash(self.label)


@dataclass(frozen=True, eq=False)
class Assign(Stmt):
    label: int
    var: str
    exp: Exp


@dataclass(frozen=True, eq=False)
class Return(Stmt):
    label: int
    var: str


@dataclass(frozen=True, eq=False)
class Throw(Stmt):
    label: int
    var: str


@dataclass(frozen=True, eq=False)
class TryCatch(Stmt):
    label: int
    body: tuple[Stmt, ...]
    catch_class: str
    catch_var: str
    handler: tuple[Stmt, ...]

    def __repr__(self):
        return (f"TryCatch(label={self.label}, body=<{len(self.body)} stmts>, "
                f"catch=({self.catch_class} {self.catch_var}), "
                f"handler=<{len(self.handler)} stmts>)")


@dataclass(frozen=True, eq=False)
class PopHandler(Stmt):
    label: int


# ---------------------------------------------------------------------------
# Declarations

@dataclass(frozen=True, eq=False)
class Konst:
    class_name: str
    params: tuple[tuple[str, str], ...]       # (class, name)
    super_args: tuple[str, ...]
    inits: tuple[tuple[str, str], ...]        # (field, param) per this.f = x


@dataclass(frozen=True, eq=False)
class MethodDecl:
    return_class: str
    name: str
    params: tuple[tuple[str, str], ...]       # (class, name)
    locals: tuple[tuple[str, str], ...]       # (class, name)
    body: tuple[Stmt, ...]
    owner: str                                # name of the declaring class


@dataclass(frozen=True, eq=False)
class ClassDecl:
    name: str
    parent: str
    fields: tuple[tuple[str, str], ...]       # (class, name)
    konst: Konst
    methods: tuple[MethodDecl, ...]


@dataclass(frozen=True, eq=False)
class Program:
    classes: tuple[ClassDecl, ...]
    entry: tuple[str, str]                    # (class name, method name)


# ---------------------------------------------------------------------------
# Tokenizer
#
# A token is its text. One pattern finds them all: after the four
# whitespace characters (space, tab, CR, LF), a comment, a punctuation
# mark, a word, or any other character, which is an error. `\w` is
# exactly str.isalnum() or "_", so a word reads as far as an identifier
# does; one whose first character is neither alphabetic nor "_" is an
# error too. A comment, or the end of input after whitespace, matches
# outside the group, and `findall` returns "" for it; matching the end
# keeps trailing whitespace from being rescanned from each position.

_PUNCT = frozenset("{}();,=.")
_TOKEN = re.compile(r"[ \t\r\n]*(?://[^\n]*|([{}();,=.]|\w+|[^ \t\r\n])|\Z)")
_NOT_NAMES = KEYWORDS | _PUNCT | {""}       # "" is the end of input
_NOT_OPERANDS = _NOT_NAMES - {THIS}


def _tokenize(src: str) -> list[str]:
    """The tokens of src, then three "": the end of input and two more,
    so that the parser can look two tokens ahead of any it stands on."""
    toks = list(filter(None, _TOKEN.findall(src)))
    bad = {t for t in set(toks)
           if t not in _PUNCT and not (t[0].isalpha() or t[0] == "_")}
    if bad:
        at = next(i for i, t in enumerate(toks) if t in bad)
        raise ParseError(f"unexpected character {toks[at][0]!r}", *_position(src, at))
    return toks + ["", "", ""]


def _position(src: str, index: int) -> tuple[int, int]:
    """The line and column of src's token at index, or of the end of
    input past the last token. Lines start at LF; every other
    character, tab and CR too, is one column."""
    starts = (m.start(1) for m in _TOKEN.finditer(src) if m.lastindex)
    offset = next(islice(starts, index, None), len(src))
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    """Reads tokens at self.pos; a check reads the token before it
    steps past it, so an error names the index it stopped at."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.labels = 0

    def label(self) -> int:
        """The next statement label: labels count up from 1 in the order
        statements are read, program-wide."""
        self.labels += 1
        return self.labels

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.pos + ahead]

    def error(self, msg: str, at: int | None = None):
        """Raise a ParseError at token index at, by default the next
        token's."""
        raise ParseError(msg, *_position(self.src, self.pos if at is None else at))

    def expect(self, text: str):
        t = self.toks[self.pos]
        if t != text:
            self.error(f"expected {text!r}, found {t!r}")
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        t = self.toks[self.pos]
        if t in _NOT_NAMES:
            self.error(f"expected {what}, found {t!r}")
        self.pos += 1
        return t

    def operand(self) -> str:
        # a variable position; `this` is allowed
        t = self.toks[self.pos]
        if t in _NOT_OPERANDS:
            self.error(f"expected variable, found {t!r}")
        self.pos += 1
        self._check_atomic()
        return t

    def _check_atomic(self):
        if self.toks[self.pos] in (".", "("):
            self.error("non-atomic argument")

    def declaration(self) -> tuple[str, str] | None:
        """The (class, name) of a `Class name;` declaration, read past,
        or None, reading nothing, if the next tokens are not one."""
        a, b, c = self.toks[self.pos:self.pos + 3]
        if a in _NOT_NAMES or b in _NOT_NAMES or c != ";":
            return None
        self.pos += 3
        return a, b

    def program(self) -> Program:
        classes = []
        seen = {OBJECT}
        while self.peek() == "class":
            decl = self.class_decl(seen)
            seen.add(decl.name)
            classes.append(decl)
        if self.peek():
            self.error(f"expected 'class', found {self.peek()!r}")
        if not classes:
            self.error("empty program")
        entries = [(c.name, m.name) for c in classes for m in c.methods
                   if m.name == "main" and not m.params]
        if not entries:
            raise ParseError("no zero-argument method named 'main' found")
        if len(entries) > 1:
            raise ParseError("multiple zero-argument methods named 'main'")
        return Program(classes=tuple(classes), entry=entries[0])

    def class_decl(self, seen: set[str]) -> ClassDecl:
        """A class; seen holds the class names declared so far."""
        self.expect("class")
        at = self.pos
        name = self.ident("class name")
        if name in seen:
            self.error(f"duplicate class {name!r}", at)
        self.expect("extends")
        parent = self.peek()
        if parent in _NOT_NAMES:
            self.error("expected parent class name")
        self.pos += 1
        self.expect("{")
        fields: dict[str, str] = {}             # name -> class
        # field declarations until the constructor, recognized by its
        # name matching the class followed by '('
        while not (self.peek() == name and self.peek(1) == "("):
            decl = self.declaration()
            if decl is None:
                self.error(f"expected field declaration or constructor {name!r}")
            fcls, fname = decl
            if fname in fields:
                self.error(f"duplicate field in class {name!r}", self.pos - 2)
            fields[fname] = fcls
        konst = self.konst(name)
        methods: dict[str, MethodDecl] = {}
        while self.peek() != "}":
            m = self.method_decl(name, methods)
            methods[m.name] = m
        self.expect("}")
        return ClassDecl(name=name, parent=parent,
                         fields=tuple((c, f) for f, c in fields.items()),
                         konst=konst, methods=tuple(methods.values()))

    def konst(self, class_name: str) -> Konst:
        self.expect(class_name)
        params = self.param_list()
        self.expect("{")
        self.expect("super")
        self.expect("(")
        super_args = self.arg_list()
        self.expect(";")
        inits = []
        while self.peek() == "this":
            self.pos += 1
            self.expect(".")
            fname = self.ident("field name")
            self.expect("=")
            pname = self.ident("parameter name")
            self.expect(";")
            inits.append((fname, pname))
        self.expect("}")
        return Konst(class_name=class_name, params=params,
                     super_args=super_args, inits=tuple(inits))

    def param_list(self) -> tuple[tuple[str, str], ...]:
        self.expect("(")
        params = []
        if self.peek() != ")":
            while True:
                pcls = self.ident("parameter class")
                pname = self.ident("parameter name")
                params.append((pcls, pname))
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
        self.expect(")")
        return tuple(params)

    def arg_list(self) -> tuple[str, ...]:
        # caller has consumed '('
        args = []
        if self.peek() != ")":
            while True:
                args.append(self.operand())
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
        self.expect(")")
        return tuple(args)

    def method_decl(self, owner: str, siblings: dict[str, MethodDecl]) -> MethodDecl:
        """A method of class owner; siblings holds its earlier methods."""
        rcls = self.ident("return class")
        at = self.pos
        name = self.ident("method name")
        if name in siblings:
            self.error(f"duplicate method in class {owner!r}", at)
        params = self.param_list()
        self.expect("{")
        locals_ = []
        while (decl := self.declaration()) is not None:
            locals_.append(decl)
        body = self.stmt_seq()
        self.expect("}")
        return MethodDecl(return_class=rcls, name=name, params=params,
                          locals=tuple(locals_), body=body, owner=owner)

    def stmt_seq(self) -> tuple[Stmt, ...]:
        """A non-empty statement sequence, up to the '}' or end of input
        that closes it. Try blocks nest on an explicit stack of open
        sequences, so nesting depth costs no Python stack. Each entry
        holds the enclosing sequence, the try's label and, once its body
        is closed, the body and the catch clause."""
        stmts: list[Stmt] = []
        open_trys: list[tuple] = []
        while True:
            t = self.peek()
            if t == "try":
                self.pos += 1
                self.expect("{")
                open_trys.append((stmts, self.label()))
                stmts = []
                continue
            if t != "}" and t:
                stmts.append(self.stmt())
                continue
            if not stmts:
                self.error("empty statement sequence")
            if not open_trys:
                return tuple(stmts)
            self.expect("}")
            outer, label, *closed = open_trys.pop()
            if closed:
                body, ccls, cvar = closed
                outer.append(TryCatch(label, body, ccls, cvar, tuple(stmts)))
                stmts = outer
                continue
            stmts.append(PopHandler(self.label()))
            self.expect("catch")
            self.expect("(")
            ccls = self.ident("exception class")
            cvar = self.ident("catch variable")
            self.expect(")")
            self.expect("{")
            open_trys.append((outer, label, tuple(stmts), ccls, cvar))
            stmts = []

    def stmt(self) -> Stmt:
        """A statement other than try, which stmt_seq reads itself."""
        t = self.peek()
        if t == "return":
            self.pos += 1
            v = self.operand()
            self.expect(";")
            return Return(self.label(), v)
        if t == "throw":
            self.pos += 1
            v = self.operand()
            self.expect(";")
            return Throw(self.label(), v)
        if t not in _NOT_NAMES:
            self.pos += 1
            self.expect("=")
            e = self.exp()
            self.expect(";")
            return Assign(self.label(), t, e)
        self.error(f"expected statement, found {t!r}")

    def exp(self) -> Exp:
        t = self.peek()
        if t == "new":
            self.pos += 1
            cname = self.ident("class name")
            self.expect("(")
            return New(cname, self.arg_list())
        if t == "(":
            self.pos += 1
            cname = self.ident("cast class")
            self.expect(")")
            v = self.operand()
            return Cast(cname, v)
        if t not in _NOT_OPERANDS:
            self.pos += 1
            if self.peek() == ".":
                self.pos += 1
                member = self.ident("member name")
                if self.peek() == "(":
                    self.pos += 1
                    return Invoke(t, member, self.arg_list())
                if self.peek() == ".":
                    self.error("non-atomic argument")
                return FieldRef(t, member)
            self._check_atomic()
            return VarRef(t)
        self.error(f"expected expression, found {t!r}")


def parse_program(src: str) -> Program:
    """Parse ANFJ source text into a labeled Program."""
    return _Parser(src).program()


# ---------------------------------------------------------------------------
# Class table

@dataclass(eq=False)
class ClassInfo:
    decl: ClassDecl
    parent: Optional[str]
    fields_flat: tuple[str, ...]              # superclass fields first
    field_classes: dict[str, str]
    methods: dict[str, MethodDecl]            # own methods only


class LabeledProgram:
    """A labeled program plus every static table the analyses consume."""

    def __init__(self, program: Program):
        self.program = program
        self.classes: dict[str, ClassInfo] = {}
        self.stmt_by_label: dict[int, Stmt] = {}
        self.succ_map: dict[int, Stmt] = {}
        self.method_of: dict[int, MethodDecl] = {}
        self.uses: dict[int, frozenset[str]] = {}     # variables each label reads
        self.lives: dict[int, frozenset[str]] = {}
        self.handler_heads: dict[int, TryCatch] = {}
        self.enclosing_try: dict[int, TryCatch] = {}   # innermost try whose body holds the label
        self.entry_method: MethodDecl | None = None

    # -- spec operations ----------------------------------------------------

    def successor(self, label: int) -> Stmt | None:
        if label not in self.stmt_by_label:
            raise KeyError(f"unknown label {label}")
        return self.succ_map.get(label)

    def class_lookup(self, name: str) -> tuple[tuple[str, ...], Konst | None]:
        info = self.classes.get(name)
        if info is None:
            raise KeyError(f"unknown class {name!r}")
        return info.fields_flat, (None if name == OBJECT else info.decl.konst)

    def method_lookup(self, class_name: str, method: str) -> MethodDecl | None:
        c: Optional[str] = class_name
        while c is not None:
            info = self.classes.get(c)
            if info is None:
                return None
            m = info.methods.get(method)
            if m is not None:
                return m
            c = info.parent
        return None

    def subtype(self, a: str, b: str) -> bool:
        c: Optional[str] = a
        while c is not None:
            if c == b:
                return True
            info = self.classes.get(c)
            if info is None:
                return False
            c = info.parent
        return False

    # -- conveniences --------------------------------------------------------

    def stmt(self, label: int) -> Stmt:
        return self.stmt_by_label[label]

    def first_stmt(self, method: MethodDecl) -> Stmt:
        return method.body[0]

    def method_of_label(self, label: int) -> MethodDecl:
        return self.method_of[label]


def _object_info() -> ClassInfo:
    decl = ClassDecl(name=OBJECT, parent=OBJECT, fields=(),
                     konst=Konst(OBJECT, (), (), ()), methods=())
    return ClassInfo(decl=decl, parent=None, fields_flat=(),
                     field_classes={}, methods={})


def _path_terminates(seq: tuple[Stmt, ...]) -> bool:
    """Whether every control path through seq ends in return or throw:
    its last statement is one, or is a try whose body (before its
    PopHandler) and handler both end so."""
    pending = [seq[-1]]
    while pending:
        last = pending.pop()
        if isinstance(last, TryCatch):
            pending += (last.body[-2], last.handler[-1])
        elif not isinstance(last, (Return, Throw)):
            return False
    return True


def _exp_uses(e: Exp) -> frozenset[str]:
    if isinstance(e, VarRef):
        return frozenset((e.var,))
    if isinstance(e, FieldRef):
        return frozenset((e.var,))
    if isinstance(e, Invoke):
        return frozenset((e.receiver, *e.args))
    if isinstance(e, New):
        return frozenset(e.args)
    if isinstance(e, Cast):
        return frozenset((e.var,))
    raise TypeError(e)


def stmt_uses(s: Stmt) -> frozenset[str]:
    if isinstance(s, Assign):
        return _exp_uses(s.exp)
    if isinstance(s, (Return, Throw)):
        return frozenset((s.var,))
    return frozenset()


def stmt_defs(s: Stmt) -> frozenset[str]:
    if isinstance(s, Assign):
        return frozenset((s.var,))
    return frozenset()


def iter_stmts(seq: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Every statement of seq and of the try blocks in it, in pre-order:
    a try, its body, its handler, then what follows the try. The walk
    keeps its own stack of sequences, so each statement costs O(1) at
    any depth of nesting."""
    stack = [iter(seq)]
    while stack:
        for s in stack[-1]:
            yield s
            if isinstance(s, TryCatch):
                stack.append(iter(s.handler))
                stack.append(iter(s.body))
                break
        else:
            stack.pop()


class _Elaborator:
    def __init__(self, program: Program):
        self.program = program
        self.lp = LabeledProgram(program)

    def run(self) -> LabeledProgram:
        self._build_class_table()
        self._check_konsts()
        methods = [(decl, m) for decl in self.program.classes for m in decl.methods]
        for decl, m in methods:
            self._walk(decl, m)
        for decl, m in methods:
            if not _path_terminates(m.body):
                raise ElaborationError(
                    f"a control path in {decl.name}.{m.name} does not end in return or throw")
            self.lp.lives.update(compute_liveness(self.lp, m))
        return self.lp

    def _build_class_table(self):
        table = {OBJECT: _object_info()}
        for decl in self.program.classes:
            table[decl.name] = ClassInfo(decl=decl, parent=decl.parent, fields_flat=(),
                                         field_classes={}, methods={m.name: m for m in decl.methods})
        for decl in self.program.classes:
            if decl.parent not in table:
                raise ElaborationError(f"unknown class {decl.parent!r} (parent of {decl.name!r})")
        # cycle check and field flattening, parents first
        resolved: dict[str, tuple[str, ...]] = {OBJECT: ()}
        fclasses: dict[str, dict[str, str]] = {OBJECT: {}}

        def resolve(name: str) -> None:
            # walk up to the first resolved ancestor, then flatten on the
            # way back down; iterative, so a deep extends chain declared
            # in any order cannot exhaust the Python stack
            pending: list[str] = []
            seen: set[str] = set()
            while name not in resolved:
                if name in seen:
                    raise ElaborationError(f"extends cycle through {name!r}")
                seen.add(name)
                pending.append(name)
                name = table[name].decl.parent
            for name in reversed(pending):
                decl = table[name].decl
                parent_fields = resolved[decl.parent]
                own = tuple(fn for _, fn in decl.fields)
                for fn in own:
                    if fn in parent_fields:
                        raise ElaborationError(
                            f"field shadowing conflict: {fn!r} in {name!r} hides an inherited field")
                resolved[name] = parent_fields + own
                fc = dict(fclasses[decl.parent])
                fc.update({fn: fc_ for fc_, fn in decl.fields})
                fclasses[name] = fc

        for decl in self.program.classes:
            resolve(decl.name)
        for name, info in table.items():
            info.fields_flat = resolved[name]
            info.field_classes = fclasses[name]
        self.lp.classes = table
        ecls, emeth = self.program.entry
        self.lp.entry_method = table[ecls].methods[emeth]
        # every class reference in declarations must resolve
        for decl in self.program.classes:
            for cls, _ in decl.fields + tuple(
                    p for m in decl.methods for p in m.params + m.locals):
                if cls not in table:
                    raise ElaborationError(f"unknown class {cls!r} referenced in {decl.name!r}")
            for m in decl.methods:
                if m.return_class not in table:
                    raise ElaborationError(
                        f"unknown class {m.return_class!r} referenced in {decl.name!r}")

    def _check_konsts(self):
        table = self.lp.classes
        for decl in self.program.classes:
            k = decl.konst
            pnames = [n for _, n in k.params]
            if len(pnames) != len(set(pnames)):
                raise ElaborationError(f"duplicate constructor parameter in {decl.name!r}")
            parent = table[decl.parent]
            parent_arity = 0 if decl.parent == OBJECT else len(parent.decl.konst.params)
            if len(k.super_args) != parent_arity:
                raise ElaborationError(
                    f"constructor of {decl.name!r} passes {len(k.super_args)} args to super, "
                    f"parent expects {parent_arity}")
            if tuple(k.super_args) != tuple(pnames[: len(k.super_args)]):
                raise ElaborationError(
                    f"constructor of {decl.name!r}: super args must be a prefix of the parameters")
            own_fields = [fn for _, fn in decl.fields]
            assigned = [f for f, _ in k.inits]
            if sorted(assigned) != sorted(own_fields) or len(assigned) != len(set(assigned)):
                raise ElaborationError(
                    f"constructor of {decl.name!r} must assign each declared field exactly once")
            for f, p in k.inits:
                if p not in pnames:
                    raise ElaborationError(
                        f"constructor of {decl.name!r} assigns field {f!r} from unknown parameter {p!r}")
            for pcls, _ in k.params:
                if pcls not in table:
                    raise ElaborationError(f"unknown class {pcls!r} in constructor of {decl.name!r}")

    def _walk(self, decl: ClassDecl, m: MethodDecl):
        """One pre-order walk over m's statements. It fills the label
        tables and successors, checks scopes, and records the innermost
        try body around each statement. It keeps its own stack, one
        entry per open sequence: the sequence's (statement, successor)
        pairs, its scope and the innermost try whose body holds it."""
        lp = self.lp
        env = {THIS: decl.name}
        for pcls, pname in m.params:
            if pname in env:
                raise ElaborationError(f"duplicate parameter {pname!r} in {decl.name}.{m.name}")
            env[pname] = pcls
        for lcls, lname in m.locals:
            if lname in env:
                raise ElaborationError(f"duplicate local {lname!r} in {decl.name}.{m.name}")
            env[lname] = lcls
        stack = [(_with_successors(m.body, None), env, None)]
        while stack:
            pairs, env, inside = stack[-1]
            for s, nxt in pairs:
                lp.stmt_by_label[s.label] = s
                lp.method_of[s.label] = m
                if inside is not None:
                    lp.enclosing_try[s.label] = inside
                uses = lp.uses[s.label] = stmt_uses(s)
                self._check_stmt(decl, m, s, env, uses)
                if isinstance(s, (Assign, PopHandler)):
                    if nxt is not None:
                        lp.succ_map[s.label] = nxt
                elif isinstance(s, TryCatch):
                    lp.succ_map[s.label] = s.body[0]
                    lp.handler_heads[s.handler[0].label] = s
                    stack.append((_with_successors(s.handler, nxt),
                                  {**env, s.catch_var: s.catch_class}, inside))
                    stack.append((_with_successors(s.body, nxt), env, s))
                    break
                # Return and Throw have no successor
            else:
                stack.pop()

    def _check_stmt(self, decl: ClassDecl, m: MethodDecl, s: Stmt,
                    env: dict[str, str], uses: frozenset[str]):
        """Every variable s writes or reads (uses) is in scope, and every
        class, field and method it names exists and takes the arguments
        given."""
        table = self.lp.classes
        names = sorted(uses)
        if isinstance(s, Assign):
            names.insert(0, s.var)
        for v in names:
            if v not in env:
                raise ElaborationError(
                    f"unknown variable {v!r} in {decl.name}.{m.name} (label {s.label})")
        if isinstance(s, TryCatch):
            if s.catch_class not in table:
                raise ElaborationError(f"unknown class {s.catch_class!r} (label {s.label})")
        if not isinstance(s, Assign):
            return
        e = s.exp
        if isinstance(e, New):
            if e.class_name not in table:
                raise ElaborationError(f"unknown class {e.class_name!r} (label {s.label})")
            arity = 0 if e.class_name == OBJECT else len(table[e.class_name].decl.konst.params)
            if len(e.args) != arity:
                raise ElaborationError(
                    f"new {e.class_name} expects {arity} args, got {len(e.args)} (label {s.label})")
        elif isinstance(e, Cast):
            if e.class_name not in table:
                raise ElaborationError(f"unknown class {e.class_name!r} (label {s.label})")
        elif isinstance(e, FieldRef):
            owner = env[e.var]
            if e.field not in table[owner].field_classes:
                raise ElaborationError(
                    f"unknown field {e.field!r} on class {owner!r} (label {s.label})")
        elif isinstance(e, Invoke):
            owner = env[e.receiver]
            target = self.lp.method_lookup(owner, e.method)
            if target is None:
                raise ElaborationError(
                    f"unknown method {e.method!r} on class {owner!r} (label {s.label})")
            if len(target.params) != len(e.args):
                raise ElaborationError(
                    f"method {e.method!r} expects {len(target.params)} args, "
                    f"got {len(e.args)} (label {s.label})")


def _with_successors(seq: tuple[Stmt, ...], after: Stmt | None):
    """Each statement of seq with the one after it; the last one's is
    after, the statement that follows seq."""
    return zip(seq, seq[1:] + (after,))


def elaborate(program: Program) -> LabeledProgram:
    """Build all static tables of a parsed, labeled program.

    Idempotent: re-elaborating the program's own declarations yields
    identical labels and successors.
    """
    return _Elaborator(program).run()


def compute_liveness(lp: LabeledProgram, method: MethodDecl) -> dict[int, frozenset[str]]:
    """Backward may-liveness per label:
    lives(l) = use(l) | (out(l) - def(l)), where use(l) is lp.uses[l],
    computed once at elaboration; out(l) is the live set of l's
    successor plus X(T) for the innermost try T whose body holds l; and
    X(T) = lives(handler head of T) | X(the try whose body holds T): a
    statement flows to the head of every handler around it.

    Every flow edge goes to a larger label, so one pass in descending
    label order (reversed pre-order) reaches the least fixpoint. X(T) is
    first needed at T's PopHandler, the last statement of T's body,
    after the handler head and every enclosing PopHandler."""
    lives: dict[int, frozenset[str]] = {}
    exc_out: dict[TryCatch | None, frozenset[str]] = {None: frozenset()}
    for s in reversed(list(iter_stmts(method.body))):
        inside = lp.enclosing_try.get(s.label)
        if isinstance(s, PopHandler):
            exc_out[inside] = (lives[inside.handler[0].label]
                               | exc_out[lp.enclosing_try.get(inside.label)])
        nxt = lp.succ_map.get(s.label)
        out = exc_out[inside] if nxt is None else lives[nxt.label] | exc_out[inside]
        lives[s.label] = lp.uses[s.label] | (out - stmt_defs(s))
    return lives


def load_program(src: str) -> LabeledProgram:
    """Parse and elaborate in one step. Neither recurses per level of
    try nesting, so nesting depth is bounded only by memory."""
    return elaborate(parse_program(src))
