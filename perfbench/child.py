"""One measured process: `python3 child.py MODE INPUT_JSON RESULT_JSON [OUT_DIR]`.

MODE is one of
  setup  import umbilic and load (and so validate) the workload's surface,
         then sample the host speed;
  run    call umbilic.cli.main once, untraced, sampling the host speed;
  trace  the same call under the outside-in tracer, then a count-only pass.

The result (timings, exit code, peak memory, trace metrics) is written to
RESULT_JSON, so the CLI's own output on stdout stays out of the way.
"""

import json
import resource
import signal
import sys
import time


def _load_surface(surface):
    from umbilic import surfaces

    if "file" in surface:
        return surfaces.load_definition(surface["file"])
    return surfaces.preset(surface["preset"], surface["params"])


# How fast a shared host runs the same code swings by up to 2x within
# seconds, and a CLI call slows with it. A fixed kernel is timed before,
# during (from a timer signal) and after each timed call; its speed is
# REF_NOMINAL_S over its time, and run.py multiplies the call's time by it.
# REF_NOMINAL_S is a fixed scale: about the kernel's mean time during the
# calls of the first baseline, so speed 1 is that machine's usual speed.
REF_NOMINAL_S = 0.008
REF_PERIOD_S = 0.25


class HostSpeed:
    """Samples a fixed compute-bound kernel that does not use umbilic.

    `spent_s` is the time the samples took. The kernel works in buffers
    allocated here, before the call, so that samples taken during the call
    allocate nothing on the heap the program uses and leave its peak
    memory as it is.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.empty(4096)
        self.a = np.empty_like(self.x)
        self.b = np.empty_like(self.x)
        self.n = 0
        self.speed_sum = 0.0
        self.spent_s = 0.0

    def reference_s(self):
        """Seconds the kernel takes: a Python loop plus small numpy ops."""
        np, x, a, b = self.np, self.x, self.a, self.b
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i % 7
        x[:] = 0.5
        for _ in range(60):
            np.sin(x, out=a)
            np.cos(x[::-1], out=b)
            np.add(a, b, out=x)
            x *= 0.5
        return time.perf_counter() - t0

    def sample(self, *_):
        t0 = time.perf_counter()
        self.speed_sum += REF_NOMINAL_S / self.reference_s()
        self.n += 1
        self.spent_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        """Mean speed over the samples, 1.0 being the baseline machine's usual speed."""
        return self.speed_sum / self.n


def main(argv):
    mode, input_path, result_path = argv[:3]
    with open(input_path) as fh:
        job = json.load(fh)

    if mode == "setup":
        t0 = time.perf_counter()
        import umbilic  # noqa: F401

        t1 = time.perf_counter()
        _load_surface(job["surface"])
        t2 = time.perf_counter()
        host = HostSpeed()
        for _ in range(4):
            host.sample()
        result = {"import_s": t1 - t0, "load_s": t2 - t1, "ref_spent_s": host.spent_s,
                  "speed": host.speed()}
    else:
        from umbilic import cli

        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer(job["run_id"])
            tracer.install()
        call = job["argv"] + ["--out", argv[3]]
        if mode == "run":
            host = HostSpeed()
            host.sample()
            before = host.spent_s
            host.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.main(call)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        result = {"rc": rc}
        if mode == "run":
            host.stop()
            during = host.spent_s - before
            wall, cpu = wall - during, cpu - during
            host.sample()
            result["speed"] = host.speed()
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.write_spans(job["spans_path"])
            result["metrics"] = tracer.metrics()
            result["metrics"].update(tracing.jet_mul_counts(_load_surface(job["surface"])))

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
