"""Interactive run stepping.

The session holds a run and a clock.  ``issue`` grants a license at the
current time; ``do`` records an action for a name at the current time and
then advances the clock (names without an action do bot); ``show`` prints
what each name may and must do now; ``eval`` evaluates a formula at the
current time; ``undo`` reverts the last edit.  Illegal edits (reusing a
name, acting twice) and lines that do not parse or are nested too deeply
are rejected, and the session continues.
"""

from __future__ import annotations

from .formulas import evaluate
from .parsing import ParseError, parse_action, parse_formula, parse_license
from .runs import Run, compute_permissions, make_run, permission_line

_HELP = """commands:
  issue <name> <license>   grant a license under a fresh name, now
  do <name> <action>       record an action for a name, then advance time
  show                     permitted and obligated actions per name, now
  eval <formula>           evaluate a formula at the current time
  undo                     revert the last issue/do
  quit                     leave the session"""

NESTED_TOO_DEEPLY = "the input is nested too deeply to process"
TOO_LARGE = "the input is too large to process"


def printable(text: str, stream) -> str:
    """``text`` with what ``stream``'s encoding cannot represent backslash-escaped."""
    encoding = getattr(stream, "encoding", None) or "utf-8"
    return text.encode(encoding, "backslashreplace").decode(encoding)


class ReplSession:
    def __init__(self, base: Run):
        self.base = base
        self.events: list[tuple] = []  # ("issue", t, name, lic) | ("do", t, name, act)
        self.time = 0 if not (base.issuances or base.actions) else base.horizon + 1

    def current_run(self) -> Run:
        issuances = list(self.base.issuances)
        actions = list(self.base.actions)
        for event in self.events:
            kind, t, name, payload = event
            if kind == "issue":
                issuances.append((t, name, payload))
            else:
                actions.append((t, name, payload))
        return make_run(issuances, actions, horizon=max(self.time, self.base.horizon))

    def issue(self, name: str, lic) -> None:
        taken = {n for _, n, _ in self.base.issuances}
        taken |= {n for kind, _, n, _ in self.events if kind == "issue"}
        if name in taken:
            raise ValueError(f"name reused: {name} already holds a license")
        self.events.append(("issue", self.time, name, lic))

    def do(self, name: str, action) -> None:
        # every recorded action lies before the clock, which each do advances
        self.events.append(("do", self.time, name, action))
        self.time += 1

    def undo(self) -> bool:
        if not self.events:
            return False
        kind, t, _, _ = self.events.pop()
        if kind == "do":
            self.time = t
        return True

    def show_lines(self) -> list[str]:
        run = self.current_run()
        perms = compute_permissions(run)
        lines = [f"t={self.time}"]
        for name in sorted(run.names):
            lines.append(f"  {permission_line(name, perms.permitted(name, self.time))}")
        if len(lines) == 1:
            lines.append("  (nothing issued)")
        return lines

    def eval_formula(self, formula) -> bool:
        run = self.current_run()
        return evaluate(run, compute_permissions(run), self.time, formula)


def step_repl(base: Run, infile, outfile) -> None:
    session = ReplSession(base)

    def emit(text: str, end: str = "\n") -> None:
        outfile.write(printable(text, outfile) + end)
        outfile.flush()

    emit(f"stepping from t={session.time}; type 'help' for commands")
    while True:
        emit("lict> ", end="")
        line = infile.readline()
        words = line.strip().split(None, 2)
        if not line or words[:1] == ["quit"]:
            if not line or not infile.isatty():  # a terminal has echoed the typed newline
                emit("")  # end the last prompt's line, so what follows stands alone
            break
        if not words:
            continue
        command = words[0]
        try:
            if command == "help":
                emit(_HELP)
            elif command == "issue":
                if len(words) < 3:
                    raise ValueError("usage: issue <name> <license>")
                session.issue(words[1], parse_license(words[2]))
                emit(f"issued {words[1]} at t={session.time}")
            elif command == "do":
                if len(words) < 3:
                    raise ValueError("usage: do <name> <action>")
                session.do(words[1], parse_action(words[2]))
                emit(f"t is now {session.time}")
            elif command == "show":
                for entry in session.show_lines():
                    emit(entry)
            elif command == "eval":
                if len(words) < 2:
                    raise ValueError("usage: eval <formula>")
                text = line.strip().split(None, 1)[1]
                result = session.eval_formula(parse_formula(text))
                emit("true" if result else "false")
            elif command == "undo":
                emit("undone" if session.undo() else "nothing to undo")
            else:
                emit(f"unknown command {command!r}; type 'help'")
        except (ParseError, ValueError) as exc:
            emit(f"error: {exc}")
        except RecursionError:
            emit(f"error: {NESTED_TOO_DEEPLY}")
        except (OverflowError, MemoryError):
            emit(f"error: {TOO_LARGE}")
