"""VITRAL — a text-mode window manager for the simulated module (Sect. 6).

"To allow for proof of concept visualization and interaction, the prototype
includes VITRAL, a text-mode windows manager for RTEMS ... There is one
window for each partition, where its output can be seen, and also two more
windows which allow observation of the behaviour of AIR components."

This reproduction renders the same layout as plain text frames: one window
per partition (fed by the partition's traced application messages and
process state), plus an *AIR Partition Scheduler* window (dispatches,
schedule switches) and an *AIR Health Monitor* window (errors and recovery
actions).  Frames are strings — printable in a terminal, assertable in
tests.

Keyboard interaction (the paper demo's schedule-switch and fault-injection
keys) maps to :meth:`VitralScreen.press`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..kernel.simulator import Simulator
from ..kernel.trace import (
    ApplicationMessage,
    DeadlineMissed,
    EscalationRecovered,
    EscalationStepped,
    HealthMonitorEvent,
    PartitionDispatched,
    PartitionModeChanged,
    PartitionParked,
    ScheduleSwitchRequested,
    ScheduleSwitched,
    TraceEvent,
    WatchdogExpired,
)

__all__ = ["Window", "VitralScreen"]


class Window:
    """One bordered text window with a scrolling line buffer."""

    def __init__(self, title: str, *, width: int = 38, height: int = 8) -> None:
        if width < 10 or height < 3:
            raise ValueError(f"window {title!r}: width >= 10 and height >= 3 "
                             f"required, got {width}x{height}")
        self.title = title
        self.width = width
        self.height = height
        self._lines: Deque[str] = deque(maxlen=height - 2)

    def write(self, line: str) -> None:
        """Append one line (clipped to the window width)."""
        inner = self.width - 2
        self._lines.append(line[:inner])

    def set_lines(self, lines: List[str]) -> None:
        """Replace the whole buffer (gauge-style windows redrawn per frame)."""
        self._lines.clear()
        for line in lines:
            self.write(line)

    @property
    def lines(self) -> Tuple[str, ...]:
        """Currently visible lines."""
        return tuple(self._lines)

    def render(self) -> List[str]:
        """The window as a list of exactly ``height`` strings."""
        inner = self.width - 2
        top = f"+{self.title[:inner - 2].center(inner, '-')}+"
        body = [f"|{line.ljust(inner)}|" for line in self._lines]
        while len(body) < self.height - 2:
            body.append(f"|{' ' * inner}|")
        bottom = f"+{'-' * inner}+"
        return [top, *body, bottom]


#: A keyboard action: receives the simulator, returns a status line.
KeyAction = Callable[[Simulator], str]


class VitralScreen:
    """The whole VITRAL display for one simulator.

    Call :meth:`sync` after running the simulator to pull new trace events
    into the windows; :meth:`render` yields the composed frame (Fig. 9's
    layout: partition windows in a grid, AIR component windows below).
    """

    SCHEDULER_WINDOW = "AIR Partition Scheduler"
    HM_WINDOW = "AIR Health Monitor"
    METRICS_WINDOW = "AIR Metrics"

    def __init__(self, simulator: Simulator, *, columns: int = 2,
                 window_width: int = 38, window_height: int = 8) -> None:
        from ..obs.instrument import instrument

        self.simulator = simulator
        self.columns = max(columns, 1)
        self._cursor = 0
        self._keys: Dict[str, Tuple[str, KeyAction]] = {}
        self.partition_windows: Dict[str, Window] = {
            name: Window(f"Partition {name}", width=window_width,
                         height=window_height)
            for name in simulator.config.model.partition_names}
        self.scheduler_window = Window(self.SCHEDULER_WINDOW,
                                       width=window_width * self.columns,
                                       height=window_height)
        self.hm_window = Window(self.HM_WINDOW,
                                width=window_width * self.columns,
                                height=window_height)
        self.metrics_window = Window(self.METRICS_WINDOW,
                                     width=window_width * self.columns,
                                     height=window_height)
        #: Deterministic metrics feeding the metrics window: like the
        #: other windows, a cursor from the head of the log.
        self.metrics = instrument(simulator, replay=True)

    # -------------------------------------------------------------- #
    # event routing
    # -------------------------------------------------------------- #

    def sync(self) -> int:
        """Consume trace events newer than the last sync; returns how many."""
        events = self.simulator.trace.events
        new = events[self._cursor:]
        self._cursor = len(events)
        for event in new:
            self._route(event)
        self._refresh_metrics()
        return len(new)

    def _refresh_metrics(self) -> None:
        """Redraw the metrics window from the metrics fold of the whole
        log (gauge-style: current values, not a scrolling log)."""
        from ..obs.fold import total

        pmk = self.simulator.pmk
        state = self.metrics.state
        occupancy = " ".join(
            f"{name}:{fraction:.0%}"
            for name, fraction in sorted(pmk.occupancy().items()))
        self.metrics_window.set_lines([
            f"ticks {pmk.ticks_executed}  idle {pmk.idle_ticks}",
            f"occupancy {occupancy}",
            f"ctx switches {pmk.dispatcher.stats.context_switches}  "
            f"sched switches {total(state.schedule_switches)}",
            f"deadline misses {total(state.deadline_misses)}",
            f"hm events {total(state.hm_events)}  "
            f"mem faults {total(state.memory_faults)}",
            f"port msgs {total(state.port_messages_sent)} sent "
            f"{total(state.port_messages_received)} "
            f"rcvd  in-flight {pmk.router.in_flight}",
        ])

    def _route(self, event: TraceEvent) -> None:
        if isinstance(event, ApplicationMessage):
            window = self.partition_windows.get(event.partition)
            if window is not None:
                window.write(f"[{event.tick}] {event.text}")
        elif isinstance(event, PartitionModeChanged):
            window = self.partition_windows.get(event.partition)
            if window is not None:
                window.write(f"[{event.tick}] mode -> {event.new_mode}")
        elif isinstance(event, DeadlineMissed):
            window = self.partition_windows.get(event.partition)
            if window is not None:
                window.write(f"[{event.tick}] DEADLINE MISS {event.process}")
        elif isinstance(event, PartitionDispatched):
            self.scheduler_window.write(
                f"[{event.tick}] {event.previous or '-'} -> "
                f"{event.heir or 'idle'}")
        elif isinstance(event, ScheduleSwitchRequested):
            self.scheduler_window.write(
                f"[{event.tick}] switch requested: {event.to_schedule} "
                f"(by {event.requested_by or '?'})")
        elif isinstance(event, ScheduleSwitched):
            self.scheduler_window.write(
                f"[{event.tick}] SCHEDULE {event.from_schedule} -> "
                f"{event.to_schedule}")
        elif isinstance(event, HealthMonitorEvent):
            target = f"{event.partition or '-'}/{event.process or '-'}"
            self.hm_window.write(
                f"[{event.tick}] {event.code} {target}: {event.action}")
        elif isinstance(event, EscalationStepped):
            self.hm_window.write(
                f"[{event.tick}] FDIR rung {event.rung} "
                f"{event.partition or '-'}: {event.action}")
        elif isinstance(event, PartitionParked):
            self.hm_window.write(
                f"[{event.tick}] FDIR PARKED {event.partition} "
                f"after {event.restarts} restarts")
            window = self.partition_windows.get(event.partition)
            if window is not None:
                window.write(f"[{event.tick}] PARKED by FDIR")
        elif isinstance(event, EscalationRecovered):
            self.hm_window.write(
                f"[{event.tick}] FDIR recovered -> {event.schedule}")
        elif isinstance(event, WatchdogExpired):
            self.hm_window.write(
                f"[{event.tick}] WATCHDOG {event.partition} silent "
                f"since {event.last_kick}")

    # -------------------------------------------------------------- #
    # keyboard interaction (Sect. 6's demo controls)
    # -------------------------------------------------------------- #

    def bind(self, key: str, description: str, action: KeyAction) -> None:
        """Bind *key* to *action* (e.g. schedule switch, fault injection)."""
        self._keys[key] = (description, action)

    def press(self, key: str) -> str:
        """Trigger the action bound to *key*; returns its status line."""
        if key not in self._keys:
            return f"unbound key {key!r}"
        description, action = self._keys[key]
        status = action(self.simulator)
        self.scheduler_window.write(f"[key {key}] {description}: {status}")
        return status

    @property
    def bindings(self) -> Dict[str, str]:
        """Bound keys and their descriptions."""
        return {key: description
                for key, (description, _) in self._keys.items()}

    # -------------------------------------------------------------- #
    # rendering
    # -------------------------------------------------------------- #

    def status_panel(self) -> str:
        """One line per process: the eq. (12)/(13) status vector snapshot.

        The live counterpart of the partition windows: states, current
        priorities and pending deadlines at the instant of rendering.
        """
        lines = []
        for name in self.simulator.config.model.partition_names:
            runtime = self.simulator.runtime(name)
            lines.append(f"{name} [{runtime.mode.value}]")
            for tcb in runtime.pos.tcbs():
                lines.append(f"  {tcb.describe()}")
        return "\n".join(lines)

    def render(self, *, with_status: bool = False) -> str:
        """Compose the full frame (partition grid + AIR windows + footer).

        ``with_status=True`` appends the live process status panel.
        """
        self.sync()
        windows = list(self.partition_windows.values())
        rows: List[str] = []
        for start in range(0, len(windows), self.columns):
            group = windows[start:start + self.columns]
            rendered = [w.render() for w in group]
            height = max(len(r) for r in rendered)
            for line_index in range(height):
                rows.append(" ".join(
                    r[line_index] if line_index < len(r)
                    else " " * group[i].width
                    for i, r in enumerate(rendered)))
        rows.extend(self.scheduler_window.render())
        rows.extend(self.hm_window.render())
        rows.extend(self.metrics_window.render())
        footer = (f" t={self.simulator.now} "
                  f"schedule={self.simulator.pmk.scheduler.current_schedule} "
                  f"active={self.simulator.active_partition or 'idle'} ")
        rows.append(footer)
        if self._keys:
            keys = "  ".join(f"[{key}] {desc}"
                             for key, desc in sorted(self.bindings.items()))
            rows.append(f" keys: {keys}")
        if with_status:
            rows.append("")
            rows.append(self.status_panel())
        return "\n".join(rows)
