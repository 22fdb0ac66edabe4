"""Report schema + SARIF emitter of the determinism lint.

``repro lint --json`` emits this top-level shape::

    {
      "tool":         "repro-lint",
      "rules":        {"D101": "...", ...},
      "findings":     [{"rule", "path", "line", "col", "message", ...}],
      "suppressions": {"count": N},
      "files_checked": N,
      "counts_by_rule": {"D103": 2, ...}
    }

:func:`to_sarif` converts such a report into a minimal SARIF 2.1.0
document (one run, one driver, one result per finding), which
``repro lint --sarif`` writes for code-scanning UIs.  Stdlib only, same
constraint as the lint itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.obs.atomic import atomic_write_text, canonical_json

__all__ = ["make_report", "to_sarif", "save_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def make_report(
    tool: str,
    rules: Mapping[str, str],
    findings: Sequence,
    *,
    files_checked: int = 0,
    suppressed: int = 0,
) -> Dict:
    """The ``--json`` payload.

    ``findings`` may be dataclasses with ``as_dict()`` or plain dicts;
    every entry must carry at least ``rule``/``path``/``line``/``col``/
    ``message``.
    """
    rows: List[Dict] = []
    for f in findings:
        rows.append(f.as_dict() if hasattr(f, "as_dict") else dict(f))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["rule"]] = counts.get(row["rule"], 0) + 1
    return {
        "tool": tool,
        "rules": dict(rules),
        "findings": rows,
        "suppressions": {"count": suppressed},
        "files_checked": files_checked,
        "counts_by_rule": counts,
    }


def to_sarif(report: Mapping) -> Dict:
    """Minimal SARIF 2.1.0 document from a :func:`make_report` payload."""
    rules = report.get("rules", {})
    driver = {
        "name": report.get("tool", "repro-lint"),
        "informationUri": "https://example.invalid/repro",
        "rules": [
            {
                "id": rule_id,
                "shortDescription": {"text": text},
            }
            for rule_id, text in sorted(rules.items())
        ],
    }
    results = []
    for f in report.get("findings", ()):
        region = {"startLine": max(1, int(f.get("line", 1)))}
        col = int(f.get("col", 0))
        if col >= 0:
            region["startColumn"] = col + 1  # SARIF columns are 1-based
        results.append({
            "ruleId": f["rule"],
            "level": "error",
            "message": {"text": f["message"]},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": str(f.get("path", ""))},
                    "region": region,
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{"tool": {"driver": driver}, "results": results}],
    }


def save_sarif(report: Mapping, path: str) -> str:
    return atomic_write_text(path, canonical_json(to_sarif(report)))
