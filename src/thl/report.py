"""Run reports: dimension tables, check ledger, notes; human-readable and
byte-stable machine renderings plus a parser for round-tripping."""


class Report:
    def __init__(self, name, command, params):
        self.name = name
        self.command = command
        self.params = params            # list of (key, value-string)
        self.dim_tables = []            # (theory, [(degree, dim)])
        self.checks = []                # (name, verdict, detail) verdict in pass/fail/skip
        self.notes = []
        self.timing_seconds = None

    def add_dims(self, theory, dims):
        self.dim_tables.append((theory, [(n, d) for n, d in enumerate(dims)]))

    def add_check(self, name, ok, detail=""):
        self.checks.append((name, "pass" if ok else "fail", detail))

    def add_skip(self, name, detail=""):
        self.checks.append((name, "skip", detail))

    def add_note(self, text):
        self.notes.append(text)

    @property
    def failed(self):
        return [c for c in self.checks if c[1] == "fail"]

    @property
    def ok(self):
        return not self.failed


def emit_report(report, fmt):
    if fmt == "machine":
        return emit_machine(report)
    return emit_human(report)


def emit_machine(report):
    """Stable tab-separated rendering; no wall-clock content."""
    lines = ["thl-report\tv1"]
    lines.append(f"name\t{report.name}")
    lines.append(f"command\t{report.command}")
    for k, v in report.params:
        lines.append(f"param\t{k}\t{v}")
    for theory, rows in report.dim_tables:
        for degree, dim in rows:
            lines.append(f"dim\t{theory}\t{degree}\t{dim}")
    for name, verdict, detail in report.checks:
        if detail:
            lines.append(f"check\t{name}\t{verdict}\t{detail}")
        else:
            lines.append(f"check\t{name}\t{verdict}")
    for note in report.notes:
        lines.append(f"note\t{note}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def emit_human(report):
    out = [f"== {report.name} :: {report.command} =="]
    if report.params:
        out.append("  " + "  ".join(f"{k}={v}" for k, v in report.params))
    for theory, rows in report.dim_tables:
        out.append("")
        out.append(f"  {theory}")
        degs = "  ".join(f"{degree:>4d}" for degree, _ in rows)
        dims = "  ".join(f"{dim:>4d}" for _, dim in rows)
        out.append(f"    degree {degs}")
        out.append(f"    dim    {dims}")
    if report.checks:
        out.append("")
        width = max(len(name) for name, _, _ in report.checks)
        for name, verdict, detail in report.checks:
            line = f"  [{verdict.upper():4s}] {name:<{width}}"
            if detail:
                line += f"  {detail}"
            out.append(line)
    for note in report.notes:
        out.append(f"  note: {note}")
    if report.timing_seconds is not None:
        out.append(f"  elapsed: {report.timing_seconds:.2f}s")
    tail = "ok" if report.ok else "FAILED"
    out.append(f"  result: {tail}")
    return "\n".join(out) + "\n"


def parse_machine(text):
    """Parse a machine report back into its tables (round-trip support)."""
    lines = text.splitlines()
    if not lines or lines[0] != "thl-report\tv1":
        raise ValueError("not a machine report")
    out = {"name": None, "command": None, "params": [], "dims": {}, "checks": [], "notes": []}
    for line in lines[1:]:
        if line == "end":
            break
        parts = line.split("\t")
        tag = parts[0]
        if tag == "name":
            out["name"] = parts[1]
        elif tag == "command":
            out["command"] = parts[1]
        elif tag == "param":
            out["params"].append((parts[1], parts[2]))
        elif tag == "dim":
            theory, degree, dim = parts[1], int(parts[2]), int(parts[3])
            out["dims"].setdefault(theory, []).append((degree, dim))
        elif tag == "check":
            out["checks"].append(tuple(parts[1:]))
        elif tag == "note":
            out["notes"].append(parts[1])
        else:
            raise ValueError(f"unknown report line {line!r}")
    return out
