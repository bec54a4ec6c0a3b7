"""In-memory span recording around raymat's public entry points.

Spans are recorded from outside the program: a wrapper replaces a module or
class attribute (``raymat.identify.trace``, ``RLDatabase.lookup``, ...) and
records name, start, end and parent of every call, plus per-name counters fed
by a hook that sees each call's arguments and result. Nothing under ``src/``
is modified; ``uninstall`` puts the original attributes back.
"""

from __future__ import annotations

import os
import time
from array import array


class SpanRecorder:
    """Spans and counters of one run, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.phase = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters: dict[tuple[int, str], float] = {}
        self.current_phase = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.phase.append(self.current_phase)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        k = (self.current_phase, key)
        self.counters[k] = self.counters.get(k, 0) + amount

    def set(self, key: str, value: float) -> None:
        self.counters[(self.current_phase, key)] = value

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        """fn with a span per call; hooks receive (recorder, args, kwargs, result|error)."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._close(idx)
                if on_error is not None:
                    on_error(self, args, kwargs, err)
                raise
            self._close(idx)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result, on_error))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def summary(self, phase: int) -> dict[str, dict]:
        """Per span name: calls, busy seconds, durations, and child time by name."""
        out: dict[str, dict] = {}
        for i in range(len(self.start)):
            if self.phase[i] != phase:
                continue
            name = self.names[self.name_id[i]]
            entry = out.setdefault(name, {"calls": 0, "busy": 0.0, "durations": [], "children": {}})
            d = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["busy"] += d
            entry["durations"].append(d)
            p = self.parent[i]
            if p >= 0:
                pname = self.names[self.name_id[p]]
                parent = out.setdefault(pname, {"calls": 0, "busy": 0.0, "durations": [], "children": {}})
                parent["children"][name] = parent["children"].get(name, 0.0) + d
        return out

    def counter(self, phase: int, key: str) -> float:
        return self.counters.get((phase, key), 0)

    def write_csv(self, path) -> None:
        """All spans as CSV: id, phase, name, start_s, end_s, parent_id."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,phase,name,start_s,end_s,parent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.phase[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )


def sequences_tried(n_facets: int, max_bounces: int) -> int:
    """Facet sequences the image method considers: sum_k N (N-1)^(k-1)."""
    return sum(n_facets * (n_facets - 1) ** (k - 1) for k in range(1, max_bounces + 1))


def install_raymat(rec: SpanRecorder, mods) -> None:
    """Wrap the public entry points of tracer, identify, rldb, em and settling."""
    identify, rldb, em, settling = mods.identify, mods.rldb, mods.em, mods.settling

    def traced(r, args, kwargs, result):
        scene = args[0] if args else kwargs["scene"]
        k = kwargs.get("max_bounces", args[3] if len(args) > 3 else 2)
        r.count("tracer.trajectories", len(result))
        r.count("tracer.sequences", sequences_tried(len(scene.facets), k))
        r.set("tracer.facets", len(scene.facets))

    def enumerated(r, args, kwargs, result):
        r.count("identify.candidates", len(result))

    def matched(r, args, kwargs, result):
        r.count("identify.kept", len(result))

    def built(r, args, kwargs, result):
        r.count("rldb.cells", result.rl_db.size)

    def saved(r, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        r.count("rldb.csv_bytes", os.path.getsize(path))

    def not_settled(r, args, kwargs, err):
        if isinstance(err, settling.NotSettledError):
            r.count("settling.not_settled")

    rec.install(identify, "identify_loop", "identify.loop")
    rec.install(identify, "trace", "tracer.trace", on_result=traced)
    rec.install(identify, "enumerate_sequences", "identify.enumerate", on_result=enumerated)
    rec.install(identify, "match_measurement", "identify.match", on_result=matched)
    rec.install(rldb.RLDatabase, "lookup", "rldb.lookup")
    rec.install(rldb.RLDatabase, "save", "rldb.save", on_result=saved)
    rec.install(rldb, "build", "rldb.build", on_result=built)
    rec.install(rldb, "load", "rldb.load")
    rec.install(em, "reflection_loss", "em.reflection_loss")
    rec.install(settling, "settling_thickness", "settling.settling_thickness", on_error=not_settled)
