"""Host-speed normalization of measured times.

The benchmark runs on shared virtual CPUs whose speed drifts by more
than half within minutes, and sometimes within seconds.  One planted
solve with an identical trajectory took 4.4 to 7.3 s in the same
process, and a fixed pure-Python loop ran 0.11 to 0.20 s in consecutive
one-second windows.  Raw wall times of runs made a few minutes apart
therefore differ by more than any useful bound.

So the host's speed is sampled while the benchmark runs.  A probe is
one run of a fixed pure-Python kernel (list indexing, dict lookups,
method calls and small integer arithmetic, like the program's own
interpreter-bound loops), timed in thread CPU time.  A probe runs every
``PROBE_EVERY_S`` seconds, driven by ``SIGALRM``, throughout set-up and
the timed window, so that it samples the host while the program runs:
probes in short bursts between calls read the host at unrepresentative
moments, and moved one campaign's normalized time by 40%.  An interval's
time in *reference seconds* is its wall time, less the probes that ran
inside it, scaled by ``REFERENCE_PROBE_S`` over the median probe time
in and around it.  That is the time the interval would take on a host
where a probe takes ``REFERENCE_PROBE_S``.

On ``suite-campaign`` the program runs in forked pool workers, not in
the benchmark's process.  Probes in the idle parent then read a
different host from the one the workers see: in one run they read 40%
faster than the run before while the workers' jobs ran only 10%
faster, and the normalized job latencies spread past their bound.  So
while the campaign runs, the parent stops probing and every process
forked from it probes instead (:meth:`HostSpeed.follow_forks`): once
right after the fork, then every ``PROBE_EVERY_S`` seconds, in the
worker's own thread, like the probes of the in-process workloads.  The
workers append their probes to files that the parent reads back
(:meth:`HostSpeed.collect_forks`).  A job's own time is scaled by the
probes of the worker that ran it, and the campaign's wall time by the
mean of its jobs' factors, weighted by job time.  Over 18 campaigns,
against the median of all the workers' probes, this cut the spread of
the geometric-mean job latency from 9% to 3%, and that of the wall
time from 7% to 5% (raw: 10% and 14%).
"""

import bisect
import os
import signal
import statistics
import time

perf_counter = time.perf_counter
thread_time = time.thread_time

#: Probe CPU time on the reference host, in seconds.
REFERENCE_PROBE_S = 0.002
#: Seconds between probes while the program runs.
PROBE_EVERY_S = 0.5
#: Probes this close to an interval count towards its speed, besides
#: the nearest one on each side.
NEAR_S = 0.05

_KERNEL_ROUNDS = 10_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self, amount):
        self.value += amount
        return self.value


def _kernel(rounds=_KERNEL_ROUNDS):
    table = list(range(64))
    weights = {i: (i * 7) % 13 for i in range(64)}
    cell = _Cell()
    acc = 0
    for i in range(rounds):
        v = table[i & 63]
        acc += weights.get(v ^ (i & 7), 1)
        if acc & 1:
            acc -= cell.bump(v & 3)
        else:
            acc += 1
    return acc


class HostSpeed:
    """Timestamped probe samples and the normalization they imply."""

    def __init__(self):
        self.stamps = []   # probe midpoints (wall clock), ascending
        self.times = []    # probe CPU times
        self.walls = []    # probe wall times
        self._previous_handler = None
        self._fork_dir = None  # where forked workers write their probes
        self._fork_fd = None   # this worker's probe file
        self.workers = {}      # worker pid -> its probe CPU times
        os.register_at_fork(after_in_child=self._after_fork)

    def probe(self):
        """Run the kernel once; returns the wall clock when done."""
        started, cpu = perf_counter(), thread_time()
        _kernel()
        cpu, ended = thread_time() - cpu, perf_counter()
        self.stamps.append((started + ended) / 2)
        self.times.append(cpu)
        self.walls.append(ended - started)
        if self._fork_fd is not None:
            os.write(self._fork_fd, b"%.9f\n" % cpu)
        return ended

    def start(self):
        """Probe now and every ``PROBE_EVERY_S`` seconds until
        :meth:`stop`."""
        self.probe()
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def follow_forks(self, directory):
        """Probe in every process forked from now on, instead of here,
        until :meth:`collect_forks`.  Each worker writes its probes to
        its own file in ``directory``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._fork_dir = directory

    def _after_fork(self):
        if self._fork_dir is None:
            return
        self._fork_fd = os.open(
            os.path.join(self._fork_dir, "probes-%d" % os.getpid()),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self._fork_dir = None
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def collect_forks(self):
        """Read the workers' probes back and probe here again."""
        directory, self._fork_dir = self._fork_dir, None
        for entry in os.listdir(directory):
            with open(os.path.join(directory, entry)) as handle:
                # a line without its newline was torn by a kill
                times = [float(line) for line in handle
                         if line.endswith("\n")]
            if times:
                self.workers[int(entry.rpartition("-")[2])] = times
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def factor(self, start, end, worker=None):
        """Reference seconds per measured second over ``[start, end]``:
        from the probes within ``NEAR_S`` of it and the nearest probe
        on each side.  A time measured inside a forked worker uses that
        worker's own probes instead, when it has any."""
        if worker in self.workers:
            return REFERENCE_PROBE_S / statistics.median(
                self.workers[worker])
        stamps = self.stamps
        lo = min(bisect.bisect_left(stamps, start - NEAR_S),
                 max(bisect.bisect_right(stamps, start) - 1, 0))
        hi = max(bisect.bisect_right(stamps, end + NEAR_S),
                 min(bisect.bisect_left(stamps, end) + 1, len(stamps)))
        window = self.times[lo:hi] or self.times[-1:]
        return REFERENCE_PROBE_S / statistics.median(window)

    def normalize(self, start, end):
        """The interval's duration, less the probes inside it, in
        reference seconds."""
        lo = bisect.bisect_right(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        own = end - start - sum(self.walls[lo:hi])
        return own * self.factor(start, end)
