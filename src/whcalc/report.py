"""Structured verification reports with deterministic serialization.

Every stage carries exactly one status.  ``assumed`` marks a literature
input and must cite its source, so computed facts and quoted theorems
never blur together in the output.
"""

from __future__ import annotations

import json

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

    @classmethod
    def from_dict(cls, data):
        return cls(data["name"], data["status"], data.get("witness"),
                   data.get("citation"))


class ReportDocument(Record):
    """A command's report; ``params`` and ``stages`` default to a fresh
    dict and list per document."""

    _fields = ("tool", "version", "command", "params", "stages")

    def __init__(self, tool, version, command, params=None, stages=None):
        self.tool = tool
        self.version = version
        self.command = command
        self.params = {} if params is None else params
        self.stages = [] if stages is None else stages

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
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "params": self.params,
            "stages": [s.to_dict() for s in self.stages],
            "assumptions": [{"name": s.name, "citation": s.citation}
                            for s in self.assumptions()],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_dict(cls, data):
        doc = cls(data["tool"], data["version"], data["command"],
                  dict(data.get("params", {})))
        doc.stages = [Stage.from_dict(s) for s in data.get("stages", [])]
        return doc

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_text(self):
        lines = []
        for s in self.stages:
            witness = "" if s.witness is None else f" -- {_short(s.witness)}"
            cite = f" [{s.citation}]" if s.citation else ""
            lines.append(f"[{s.status}] {s.name}{witness}{cite}")
        return "\n".join(lines)


def _short(witness):
    if isinstance(witness, str):
        return witness
    return json.dumps(witness, sort_keys=False)
