"""Machine-readable verification reports."""

from __future__ import annotations

import json
from collections import namedtuple

PASS = "pass"
FAIL = "fail"
INGESTED = "ingested"


CheckRecord = namedtuple("CheckRecord", "id expected computed status provenance")


class VerificationReport:
    def __init__(self):
        self.checks = []  # CheckRecords, in the order they were added

    def add(self, check_id, expected, computed, provenance, ingested=False):
        if ingested:
            status = INGESTED
        else:
            status = PASS if expected == computed else FAIL
        self.checks.append(CheckRecord(check_id, expected, computed, status, provenance))
        return status

    @property
    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == FAIL]


def emit(report, fmt="json"):
    """Serialize a report with stable field order; byte-identical per run."""
    if fmt == "json":
        payload = {
            "version": 1,
            "checks": [
                {
                    "id": c.id,
                    "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed),
                    "status": c.status,
                    "provenance": c.provenance,
                }
                for c in report.checks
            ],
        }
        return json.dumps(payload, separators=(",", ":")).encode()
    if fmt == "text":
        lines = []
        width = max((len(c.id) for c in report.checks), default=0)
        for c in report.checks:
            lines.append(
                "%-4s %-*s expected=%s computed=%s [%s]"
                % (c.status.upper(), width, c.id, c.expected, c.computed, c.provenance)
            )
        lines.append("result: %s" % ("ok" if report.ok else "FAILED"))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError("unknown format %r" % fmt)


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)
