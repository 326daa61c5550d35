"""Vendor the FULL Mozilla Public Suffix List into the repo.

Reads the system copy of the public data file
(``/usr/share/publicsuffix/public_suffix_list.dat`` — the same
publicsuffix.org list the reference resolves suffixes through via
Guava's InternetDomainName; see reference build.gradle:478-485 /
docs/index.asciidoc:200) and writes
``logstash_filter_elastic_integration_ray/functions/psl_data.py``: three frozensets in the
exact shape ``functions/psl_bank.py`` exposes (exact rules, wildcard
parents, exception rules).

Unicode (IDN) rules are emitted BOTH in their unicode form and in
their IDNA/punycode ``xn--`` form, because hostnames in real logs
arrive punycoded — matching either spelling must resolve the same
suffix.

Usage: python tools/vendor_psl.py [src.dat] [dest.py]
"""

from __future__ import annotations

import os
import sys
from datetime import datetime, timezone

SRC = "/usr/share/publicsuffix/public_suffix_list.dat"
DEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "logstash_filter_elastic_integration_ray", "functions", "psl_data.py")


def puny(rule: str) -> str | None:
    """IDNA-encode a (dot-joined, already-lowercase) rule; None when it
    is pure ASCII (no second spelling needed) or unencodable."""
    if rule.isascii():
        return None
    try:
        out = ".".join(
            lbl.encode("idna").decode("ascii") if not lbl.isascii() else lbl
            for lbl in rule.split(".")
        )
    except UnicodeError:
        return None
    return out if out != rule else None


def parse(path: str) -> tuple[set[str], set[str], set[str]]:
    exact: set[str] = set()
    wild: set[str] = set()
    exc: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            # rules are the first whitespace-separated token
            rule = line.split()[0].lower()
            if rule.startswith("!"):
                tgt = exc
                rule = rule[1:]
            elif rule.startswith("*."):
                tgt = wild
                rule = rule[2:]
            elif rule == "*":
                continue  # implicit default rule; the kernel hardcodes it
            else:
                tgt = exact
            tgt.add(rule)
            p = puny(rule)
            if p:
                tgt.add(p)
    return exact, wild, exc


def emit(name: str, vals: set[str]) -> str:
    body = ",\n".join(f"    {v!r}" for v in sorted(vals))
    return f"{name}: frozenset[str] = frozenset({{\n{body},\n}})\n"


def main() -> None:
    src = sys.argv[1] if len(sys.argv) > 1 else SRC
    dest = sys.argv[2] if len(sys.argv) > 2 else DEST
    exact, wild, exc = parse(src)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d")
    with open(dest, "w", encoding="utf-8") as f:
        f.write(
            '"""GENERATED by tools/vendor_psl.py — do not edit.\n\n'
            "Full Mozilla Public Suffix List (publicsuffix.org, MPL-2.0 data,\n"
            f"system copy vendored {stamp}), parsed into the three rule sets\n"
            "the registered_domain kernel consumes.  Unicode rules appear in\n"
            "both unicode and IDNA/punycode spellings.\n"
            '"""\n\n# fmt: off\n'
        )
        f.write(emit("EXACT_SUFFIXES", exact))
        f.write("\n")
        f.write(emit("WILDCARD_PARENTS", wild))
        f.write("\n")
        f.write(emit("EXCEPTION_RULES", exc))
        f.write("# fmt: on\n")
    print(f"wrote {dest}: {len(exact)} exact, {len(wild)} wildcard, "
          f"{len(exc)} exception rules")


if __name__ == "__main__":
    main()
