"""Structured verification reports with deterministic serialization.

Every stage carries exactly one status.  ``assumed`` marks a literature
input and must cite its source, so computed facts and quoted theorems
never blur together in the output.  A document holds only what its
command chose, the command and its parameters, and the stages it adds;
``to_dict`` names the tool and its version itself.
"""

from __future__ import annotations

import json

from . import __version__
from ._value import Record

VERIFIED = "verified"
DERIVED = "derived"
ASSUMED = "assumed"
FAILED = "failed"

_STATUSES = (VERIFIED, DERIVED, ASSUMED, FAILED)


class Stage(Record):
    _fields = ("name", "status", "witness", "citation")

    def __init__(self, name, status, witness=None, citation=None):
        if status not in _STATUSES:
            raise ValueError(f"unknown stage status {status!r}")
        if status == ASSUMED and not citation:
            raise ValueError("assumed stages must carry a citation")
        self.name = name
        self.status = status
        self.witness = witness
        self.citation = citation

    def to_dict(self):
        data = {"name": self.name, "status": self.status,
                "witness": self.witness}
        if self.citation is not None:
            data["citation"] = self.citation
        return data


class ReportDocument(Record):
    """A command's report; ``params`` defaults to a fresh dict, and
    ``stages`` starts as a fresh empty list that ``add`` extends."""

    _fields = ("command", "params", "stages")

    def __init__(self, command, params=None):
        self.command = command
        self.params = {} if params is None else params
        self.stages = []

    def add(self, name, status, witness=None, citation=None):
        stage = Stage(name, status, witness, citation)
        self.stages.append(stage)
        return stage

    def assumptions(self):
        return [s for s in self.stages if s.status == ASSUMED]

    def failed(self):
        return [s for s in self.stages if s.status == FAILED]

    def exit_code(self):
        return 1 if self.failed() else 0

    def to_dict(self):
        return {
            "tool": "whcalc",
            "version": __version__,
            "command": self.command,
            "params": self.params,
            "stages": [s.to_dict() for s in self.stages],
            "assumptions": [{"name": s.name, "citation": s.citation}
                            for s in self.assumptions()],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def to_text(self):
        lines = []
        for s in self.stages:
            witness = "" if s.witness is None else f" -- {json.dumps(s.witness)}"
            cite = f" [{s.citation}]" if s.citation else ""
            lines.append(f"[{s.status}] {s.name}{witness}{cite}")
        return "\n".join(lines)
