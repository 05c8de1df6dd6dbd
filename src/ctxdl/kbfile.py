"""Single-file knowledge-base documents: load, validate, dump state.

File format: section keywords on their own, statements terminated by ``.``,
``#`` comments anywhere. Sections may appear in any order and repeat; the
loader resolves cross-references after reading the whole file, and loading
is all-or-nothing::

    signature
      concept A, B.          role r.            individual a, b.
    contexts
      context U, V.          V <= U.            # V is a subcontext of U
    covers
      cover U by V.
    tbox
      A <= B.
    abox
      a : A @ U.             (a, b) : r @ U.
    facts
      facts U : { a:A, (a,b):r }.

State dumps are separate files: a header line ``ctxdl-state <sig-digest>``
followed by one assertion per line in canonical sorted order. The digest
pins the signature the dump was written under.

Both kinds of file are read by ``errors.read_text`` and every failure is a
``LoadError`` at ``path:line``; a token error adds its column, counted in
the file's own line (a state dump line is parsed unstripped).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

from ctxdl.concepts import ConceptExpr, Signature, parse_concept_stream
from ctxdl.contexts import ContextPoset, Covering, validate_covering
from ctxdl.errors import LoadError, ParseError, read_text
from ctxdl.kb import (
    Assertion,
    KnowledgeState,
    canonical_abox,
    parse_assertion,
    parse_assertion_stream,
    parse_fact_list_stream,
    signature_digest,
)
from ctxdl.lexer import END, IDENT, Token, TokenStream, tokenize
from ctxdl.reasoner import TBox
from ctxdl.values import Record

if TYPE_CHECKING:
    from ctxdl.sheaf import Presheaf

SECTIONS = ("signature", "contexts", "covers", "tbox", "abox", "facts")

STATE_HEADER = "ctxdl-state"


class KBDocument(Record):
    """A fully cross-checked knowledge-base document.

    Fields: signature, poset, coverings (a tuple of Covering), tbox, abox
    (a frozenset of assertions) and universes (context name -> frozenset
    of facts).
    """

    __slots__ = ("signature", "poset", "coverings", "tbox", "abox", "universes")

    def state(self) -> KnowledgeState:
        return KnowledgeState(self.tbox, self.abox)

    def presheaf(self) -> Presheaf:
        from ctxdl.sheaf import Presheaf

        return Presheaf(self.poset, self.universes)


def load_kb(path: Union[str, Path]) -> KBDocument:
    """Load and validate a document; any failure raises LoadError."""
    return loads(read_text(path), str(path))


def loads(text: str, path: str = "<kb>") -> KBDocument:
    """Parse document text; *path* only labels error messages."""
    try:
        statements = _split_statements(text)
        return _build(statements, path)
    except ParseError as exc:
        raise LoadError.at(path, exc) from exc


# Each statement is the token slice up to its terminating '.', tagged with
# the active section.
class _Statement(Record):
    __slots__ = ("section", "tokens", "line")


def _split_statements(text: str) -> list[_Statement]:
    toks = tokenize(text)
    out: list[_Statement] = []
    section: str | None = None
    i = 0
    while toks[i].kind != END:
        tok = toks[i]
        if tok.kind == IDENT and tok.text in SECTIONS:
            # 'facts U : ...' is a statement (it names its own section);
            # any other occurrence of a section keyword opens that section.
            facts_statement = (
                tok.text == "facts"
                and toks[i + 1].kind == IDENT
                and toks[i + 2].kind == ":"
            )
            if not facts_statement:
                section = tok.text
                i += 1
                continue
            stmt_section = "facts"
        else:
            if section is None:
                raise ParseError(
                    f"statement before any section keyword ({', '.join(SECTIONS)})",
                    tok.line,
                    tok.col,
                )
            stmt_section = section
        j = i
        while toks[j].kind != END:
            if toks[j].kind == ".":
                # The only in-statement '.' follows a quantified role name
                # (exists r.C / forall r.C); everything else terminates.
                quantifier_dot = (
                    j >= 2
                    and toks[j - 1].kind == IDENT
                    and toks[j - 2].kind == IDENT
                    and toks[j - 2].text in ("exists", "forall")
                )
                if not quantifier_dot:
                    break
            j += 1
        if toks[j].kind != ".":
            raise ParseError("statement is missing its terminating '.'", tok.line, tok.col)
        out.append(
            _Statement(stmt_section, toks[i:j] + [Token(END, "", toks[j].line, toks[j].col)], tok.line)
        )
        i = j + 1
    return out


def _build(statements: list[_Statement], path: str) -> KBDocument:
    concepts: dict[str, None] = {}
    roles: dict[str, None] = {}
    individuals: dict[str, None] = {}
    contexts: dict[str, None] = {}
    leq_stmts: list[tuple[_Statement, Token, Token]] = []
    cover_stmts: list[tuple[_Statement, str, list[str]]] = []
    tbox_stmts: list[list[Token]] = []
    abox_stmts: list[list[Token]] = []
    facts_stmts: list[tuple[_Statement, Token, list[Token]]] = []

    def err(line: int, msg: str, col: int | None = None) -> LoadError:
        return LoadError(path, line, msg, col)

    # Phase 1: collect declarations; defer anything needing the signature.
    for stmt in statements:
        ts = TokenStream(stmt.tokens)
        if stmt.section == "signature":
            head = ts.expect(IDENT, "'concept', 'role', or 'individual'")
            bucket = {"concept": concepts, "role": roles, "individual": individuals}.get(
                head.text
            )
            if bucket is None:
                raise ParseError(
                    f"expected 'concept', 'role', or 'individual', found {head.text!r}",
                    head.line,
                    head.col,
                )
            for name in _name_list(ts):
                bucket[name] = None
        elif stmt.section == "contexts":
            if ts.at_word("context"):
                ts.next()
                for name in _name_list(ts):
                    contexts[name] = None
            else:
                v = ts.expect(IDENT, "a context name")
                ts.expect("<=")
                u = ts.expect(IDENT, "a context name")
                ts.expect_end()
                # Name resolution is deferred: declarations may follow.
                leq_stmts.append((stmt, v, u))
        elif stmt.section == "covers":
            ts.expect_word("cover")
            target = ts.expect(IDENT, "a context name")
            ts.expect_word("by")
            members = _name_list(ts)
            cover_stmts.append((stmt, target.text, members))
        elif stmt.section == "tbox":
            tbox_stmts.append(stmt.tokens)
        elif stmt.section == "abox":
            abox_stmts.append(stmt.tokens)
        elif stmt.section == "facts":
            ts.expect_word("facts")
            ctx = ts.expect(IDENT, "a context name")
            ts.expect(":")
            facts_stmts.append((stmt, ctx, stmt.tokens[ts.pos :]))

    # Phase 2: build and validate against the signature.
    try:
        sig = Signature(concepts, roles, individuals, contexts)
    except ValueError as exc:
        raise err(statements[0].line if statements else 1, str(exc)) from exc
    declared = []
    for stmt, v, u in leq_stmts:
        for tok in (v, u):
            if tok.text not in contexts:
                raise err(tok.line, f"unknown context {tok.text!r}", tok.col)
        declared.append((v.text, u.text))
    try:
        poset = ContextPoset(contexts, declared)
    except ValueError as exc:
        line = leq_stmts[-1][0].line if leq_stmts else (statements[0].line if statements else 1)
        raise err(line, str(exc)) from exc

    coverings = []
    for stmt, target, members in cover_stmts:
        cov = Covering(target, members)
        bad = validate_covering(poset, cov)
        if bad:
            raise err(stmt.line, f"invalid covering of {target!r}: " + "; ".join(bad))
        coverings.append(cov)

    inclusions: list[tuple[ConceptExpr, ConceptExpr]] = []
    for tokens in tbox_stmts:
        ts = TokenStream(tokens)
        lhs = parse_concept_stream(ts, sig)
        ts.expect("<=")
        rhs = parse_concept_stream(ts, sig)
        ts.expect_end()
        inclusions.append((lhs, rhs))

    abox: set[Assertion] = set()
    for tokens in abox_stmts:
        ts = TokenStream(tokens)
        a = parse_assertion_stream(ts, sig)
        ts.expect_end()
        abox.add(a)

    universes: dict[str, set[Assertion]] = {}
    for stmt, ctx, tokens in facts_stmts:
        if ctx.text not in sig.context_names:
            raise err(ctx.line, f"unknown context {ctx.text!r}", ctx.col)
        facts = _fact_set(TokenStream(tokens), sig)
        universes.setdefault(ctx.text, set()).update(facts)

    frozen_universes = {ctx: frozenset(facts) for ctx, facts in universes.items()}
    if facts_stmts:
        # Without facts every universe is empty and nothing can fail the
        # presheaf check, so only documents with facts load the sheaf layer.
        from ctxdl.sheaf import Presheaf

        try:
            Presheaf(poset, frozen_universes)
        except ValueError as exc:
            raise err(facts_stmts[-1][0].line, str(exc)) from exc

    return KBDocument(
        signature=sig,
        poset=poset,
        coverings=tuple(coverings),
        tbox=TBox(inclusions),
        abox=frozenset(abox),
        universes=frozen_universes,
    )


def _name_list(ts: TokenStream) -> list[str]:
    names = [ts.expect(IDENT, "a name").text]
    while ts.peek().kind == ",":
        ts.next()
        names.append(ts.expect(IDENT, "a name").text)
    ts.expect_end()
    return names


def _fact_set(ts: TokenStream, sig: Signature) -> frozenset[Assertion]:
    ts.expect("{")
    facts = parse_fact_list_stream(ts, sig, "}")
    ts.expect("}")
    ts.expect_end()
    return facts


# ---------------------------------------------------------------------------
# State dumps
# ---------------------------------------------------------------------------


def dump_state(sig: Signature, abox: Iterable[Assertion]) -> str:
    """Render a state dump: header with the signature digest, sorted assertions."""
    lines = [f"{STATE_HEADER} {signature_digest(sig)}"]
    lines.extend(canonical_abox(abox))
    return "\n".join(lines) + "\n"


def write_state(path: Union[str, Path], sig: Signature, abox: Iterable[Assertion]) -> None:
    Path(path).write_text(dump_state(sig, abox), encoding="utf-8")


def load_state(path: Union[str, Path], sig: Signature) -> frozenset[Assertion]:
    """Read a state dump written under the same signature."""
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith(STATE_HEADER + " "):
        raise LoadError(str(path), 1, f"missing '{STATE_HEADER} <digest>' header")
    digest = lines[0][len(STATE_HEADER) + 1 :].strip()
    if digest != signature_digest(sig):
        raise LoadError(str(path), 1, "state dump was written under a different signature")
    abox: set[Assertion] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            abox.add(parse_assertion(line, sig))
        except ParseError as exc:
            raise LoadError.at(str(path), exc, lineno) from exc
    return frozenset(abox)
