"""Anomaly-triggered flight recorder: anomalies *capture*, not just log.

A long-running capture cannot durably record everything forever, and a
post-hoc diagnosis cannot see what was never kept.  The flight recorder
closes the loop between the two: capture checkpoints stream into a
bounded :class:`~repro.core.durable.SegmentRing` (newest segments win),
and the moment an :class:`~repro.obs.anomaly.AnomalyEvent` at or above
the configured severity fires, the ring is sealed into a **tagged
incident bundle** — a valid trace container whose meta names
the triggering anomaly, the recent anomaly history, and what the ring
had already evicted.  ``repro diagnose`` attributes the incident's root
cause from the bundle; ``repro push`` ships it to the fleet store like
any other run.

Storage failure while sealing degrades the recorder (``degraded``,
``write_errors``) instead of killing the capture — the same discipline
as :class:`~repro.session.SessionWatchdog`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.core.durable import RecoveryReport, SegmentRing
from repro.errors import ConfigError, TraceWriteError
from repro.obs.anomaly import AnomalyEvent, AnomalyLog, severity_rank
from repro.obs.instrumented import pipeline as _obs


@dataclass(frozen=True)
class Incident:
    """One sealed incident bundle and the event that triggered it."""

    path: pathlib.Path
    event: AnomalyEvent
    report: RecoveryReport


class FlightRecorder:
    """Seals the segment ring into incident bundles on qualifying events.

    Parameters
    ----------
    ring:
        The bounded segment ring the capture checkpoints into.
    out_dir:
        Directory incident bundles are written to (created on demand by
        the durable writer).  Bundles are named
        ``incident-NNN-<kind>.npz``.
    trigger_severity:
        Minimum severity that seals a bundle; events below it only log.
    max_incidents:
        Bundles per run — one incident per distinct failure burst is the
        useful record; an anomaly storm must not fill the disk.
    cooldown_events:
        After sealing, this many further qualifying events are absorbed
        into the *next* bundle's anomaly history instead of each sealing
        their own (the storm guard's second half).
    """

    def __init__(
        self,
        ring: SegmentRing,
        out_dir: str | pathlib.Path,
        *,
        trigger_severity: str = "critical",
        max_incidents: int = 4,
        cooldown_events: int = 16,
    ) -> None:
        severity_rank(trigger_severity)  # validates
        if max_incidents < 1:
            raise ConfigError(
                f"max_incidents must be >= 1, got {max_incidents}"
            )
        if cooldown_events < 0:
            raise ConfigError(
                f"cooldown_events must be >= 0, got {cooldown_events}"
            )
        self.ring = ring
        self.out_dir = pathlib.Path(out_dir)
        self.trigger_severity = trigger_severity
        self.max_incidents = max_incidents
        self.cooldown_events = cooldown_events
        self.incidents: list[Incident] = []
        self.suppressed = 0
        self.degraded = False
        self.write_errors: list[str] = []
        self._log: AnomalyLog | None = None
        self._cooldown = 0
        self._sealing = False
        self._pending: AnomalyEvent | None = None
        #: Optional pre-seal hook (the session wires the watchdog's
        #: checkpoint here so the ring holds everything up to the event,
        #: not just up to the last periodic checkpoint).
        self.flush = None

    def attach(self, log: AnomalyLog) -> "FlightRecorder":
        """Subscribe to an anomaly log; returns self for chaining."""
        self._log = log
        log.subscribe(self.on_event)
        return self

    def on_event(self, event: AnomalyEvent) -> None:
        if severity_rank(event.severity) < severity_rank(self.trigger_severity):
            return
        if self._sealing:
            return  # a checker firing inside flush(); already being sealed
        if self._pending is not None:
            self.suppressed += 1
            return
        if self._cooldown > 0:
            self._cooldown -= 1
            self.suppressed += 1
            return
        if len(self.incidents) >= self.max_incidents:
            self.suppressed += 1
            return
        # Post-trigger roll: don't seal at the instant of the event — the
        # anomalous item is typically still *in flight* (an idle-core
        # violation fires while the wait is happening, before the slowed
        # item's END mark exists), and a bundle cut there would drop
        # exactly the window that matters.  Arm instead, and seal at the
        # next checkpoint, when the triggering window has closed.
        self._pending = event

    def on_checkpoint(self) -> Incident | None:
        """Seal the armed incident, if any (called after each checkpoint)."""
        if self._pending is None or self._sealing:
            return None
        event, self._pending = self._pending, None
        return self.seal(event)

    def seal(self, event: AnomalyEvent) -> Incident | None:
        """Seal the ring for ``event`` now; None when storage failed."""
        n = len(self.incidents)
        path = self.out_dir / f"incident-{n:03d}-{event.kind}.npz"
        incident_meta = {
            "trigger": event.to_dict(),
            "suppressed_events": self.suppressed,
        }
        if self._log is not None:
            incident_meta["anomalies"] = self._log.summary()
        self._sealing = True
        try:
            if self.flush is not None:
                self.flush()
            report = self.ring.seal_incident(path, incident_meta)
        except TraceWriteError as exc:
            self.degraded = True
            self.write_errors.append(str(exc))
            return None
        finally:
            self._sealing = False
        incident = Incident(path=path, event=event, report=report)
        self.incidents.append(incident)
        self._cooldown = self.cooldown_events
        ins = _obs()
        if ins.enabled:
            ins.flight_incidents.inc()
        return incident

    def describe(self) -> str:
        if not self.incidents:
            return "flight recorder: no incidents"
        lines = [f"flight recorder: {len(self.incidents)} incident(s)"]
        for inc in self.incidents:
            lines.append(f"  {inc.path}  <- {inc.event.describe()}")
        if self.suppressed:
            lines.append(f"  ({self.suppressed} further event(s) absorbed)")
        return "\n".join(lines)
