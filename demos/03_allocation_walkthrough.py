"""Step the allocation state machine through a day in the life of a socket.

Three processes split the socket exactly, one changes phase and wants more
ways than exist, the big one leaves, and the freed ways flow to whoever is
most starved.  Each decision prints the socket's 11 ways as a strip chart.

Run:  python3 demos/03_allocation_walkthrough.py
"""

from cacheways.apportion import Apportioner, SystemConfig
from cacheways.loops import ReuseClass

cfg = SystemConfig(sockets=1)
ap = Apportioner(cfg)

GLYPHS = "abcdefgh"
MIB = 1 << 20


def reuse(mib):
    """A reuse phase of `mib` MiB, as the allocator is told it: (bytes, reuse)."""
    return int(mib * MIB), ReuseClass.REUSE


def strip():
    cells = ["."] * cfg.ways_per_socket
    for clos in ap.sockets[0].clos:
        for pid in clos.members:
            for w in range(cfg.ways_per_socket):
                if clos.mask >> w & 1:
                    cells[w] = GLYPHS[pid] if cells[w] == "." else "!"
    return "".join(reversed(cells))


shown = 0


def tell(label):
    global shown
    print("%-52s [%s]" % (label, strip()))
    for rec in ap.records[shown:]:
        print(
            "    t=%-4g pid %d %-7s clos %d mask %#05x %-13s %s"
            % (
                rec.time_ns,
                rec.pid,
                rec.event,
                rec.clos,
                rec.bitmask,
                rec.scenario.value,
                "satisfied" if rec.satisfied else "short",
            )
        )
    shown = len(ap.records)


print("ways drawn high-to-low; '.' free, letters = owning pid\n")

ap.ipca_batch(
    0,
    [
        (0, 4.0, 5, *reuse(4.0), 9e5),
        (1, 2.0, 8, *reuse(8.0), 8e5),
        (2, 0.5, 5, *reuse(2.0), 4e5),
    ],
)
tell("t=0: footprints 4/8/2 MiB split the socket 3+6+2")

ap.pcca(100, 2, *reuse(6.0), 3e5)
tell("t=100: pid 2 now wants 4 ways; nothing free, runs short")

ap.release_process(200, 1)
tell("t=200: pid 1 exits; pid 2 collects its missing two ways")

ap.pcca(300, 0, *reuse(2.5), 2e5)
tell("t=300: pid 0 drifts lighter; demand rounds to the same 3")

print("\n%d records, %d state-changing apportionings" % (len(ap.records), ap.apportion_count))
print("the t=200 release row logs pid 1; pid 2's refill shows in the chart")
