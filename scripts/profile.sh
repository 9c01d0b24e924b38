#!/usr/bin/env bash
# Where one benchmark workload spends its time, thread by thread.
#
# Usage: scripts/profile.sh [workload] [seconds] [seed] [top]
#        (defaults: wide-tiny 15 7 12)
#
# Compiles a small SIGPROF sampler with gcc as an LD_PRELOAD library,
# builds the benchmark with line tables (its own target directory,
# target/profile), runs `benchmark run --workload <workload> --trace 0`
# under the sampler, and resolves every sampled address in the benchmark
# binary with `addr2line -i`, which expands inlined frames. For each
# thread it prints its share of all samples, then the `top` frames by
# self share (the innermost inlined frame of a sample) with their
# inclusive share (any frame of the sample's inline chain). The sampler
# uses the process CPU-time timer (ITIMER_PROF, 1 kHz), whose signal
# goes to the thread that was running, so a thread's share is its share
# of the CPU time; a thread that waits in the kernel is not sampled,
# one that spins is. Samples outside the benchmark binary (libc, the
# kernel's vDSO) are grouped by the library they fall in.
#
# Not a CI step: it needs gcc and addr2line, and its numbers move with
# the host. Needs Linux on x86-64.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:-wide-tiny}
seconds=${2:-15}
seed=${3:-7}
top=${4:-12}

out=target/profile
mkdir -p "$out"

cat > "$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
#define MAX_THREADS 256

static struct { int tid; unsigned long pc; } samples[MAX_SAMPLES];
static atomic_long taken;
static struct { atomic_int tid; char name[16]; } threads[MAX_THREADS];

/* Async-signal-safe: a syscall, an atomic slot, plain stores. */
static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig; (void)info;
    int tid = (int)syscall(SYS_gettid);
    long k = atomic_fetch_add(&taken, 1);
    if (k >= MAX_SAMPLES) return;
    samples[k].tid = tid;
    samples[k].pc = (unsigned long)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
    for (int i = 0; i < MAX_THREADS; i++) {
        int seen = atomic_load(&threads[i].tid);
        if (seen == tid) return;
        int none = 0;
        if (seen == 0 && atomic_compare_exchange_strong(&threads[i].tid, &none, tid)) {
            prctl(PR_GET_NAME, threads[i].name);
            return;
        }
    }
}

__attribute__((constructor)) static void start(void) {
    /* Sample this process only, not what it spawns. */
    unsetenv("LD_PRELOAD");
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(OUT, "w");
    if (!f) return;
    long n = atomic_load(&taken);
    if (n > MAX_SAMPLES) n = MAX_SAMPLES;
    for (int i = 0; i < MAX_THREADS && atomic_load(&threads[i].tid); i++)
        fprintf(f, "T %d %s\n", atomic_load(&threads[i].tid), threads[i].name);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(f, "M %s", line);
    if (maps) fclose(maps);
    for (long k = 0; k < n; k++) fprintf(f, "S %d %lx\n", samples[k].tid, samples[k].pc);
    fclose(f);
}
EOF
gcc -O2 -shared -fPIC -DOUT="\"$(realpath "$out")/samples.txt\"" \
    -o "$out/sampler.so" "$out/sampler.c"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline -q \
    --manifest-path benchmark/Cargo.toml --target-dir "$out/bench"
bin=$(realpath "$out/bench/release/benchmark")

echo "profiling $workload for ${seconds}s (seed $seed) ..." >&2
LD_PRELOAD="$(realpath "$out/sampler.so")" \
    "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    > "$out/result.json"

python3 - "$out/samples.txt" "$bin" "$top" <<'EOF'
import collections, subprocess, sys

path, binary, top = sys.argv[1], sys.argv[2], int(sys.argv[3])
names, maps, samples = {}, [], []
for line in open(path):
    kind, rest = line[0], line[2:].rstrip("\n")
    if kind == "T":
        tid, name = rest.split(" ", 1)
        names[int(tid)] = name
    elif kind == "M":
        f = rest.split()
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
    else:
        tid, pc = rest.split()
        samples.append((int(tid), int(pc, 16)))

# The binary's load base: where its first segment (file offset 0,
# address 0) is mapped. A sampled address less the base is the address
# addr2line takes, whatever gaps the linker left between segments.
base = min(lo for lo, _, off, name in maps if name == binary and off == 0)

def where(pc):
    for lo, hi, off, name in maps:
        if lo <= pc < hi:
            return name, pc - (base if name == binary else lo - off)
    return "[unknown]", pc

# One addr2line call for every distinct address in the binary.
spots = {}
for _, pc in samples:
    name, off = where(pc)
    spots[pc] = (name, off)
inside = sorted({off for name, off in spots.values() if name == binary})
chains = {}
if inside:
    out = subprocess.run(
        ["addr2line", "-i", "-f", "-C", "-a", "-e", binary] + [hex(o) for o in inside],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # Per address: the address, then (function, location) line pairs,
    # innermost inlined frame first.
    off, lines = None, []
    for line in out + ["0x"]:
        if line.startswith("0x"):
            if off is not None:
                chains[off] = lines[0::2]
            off, lines = (int(line, 16) if line != "0x" else None), []
        else:
            lines.append(line)

def bare(fn):
    # Drops generic parameters and argument lists, and reads a qualified
    # path segment (`<impl path::Type>`, `<path::Type as Trait>`) as the
    # type's last component.
    out, i = [], 0
    while i < len(fn):
        ch = fn[i]
        if ch not in "<(":
            out.append(ch)
            i += 1
            continue
        depth, j = 0, i
        while j < len(fn):
            depth += (fn[j] in "<(") - (fn[j] in ">)")
            if depth == 0:
                break
            j += 1
        if ch == "<" and (i == 0 or fn[i - 1] == ":"):
            inner = fn[i + 1:j].split(" as ")[0]
            if inner.startswith("impl "):
                inner = inner[5:].split(" for ")[-1]
            out.append(bare(inner).split("::")[-1])
        i = j + 1
    return "".join(out)

def short(fn):
    return "::".join(bare(fn).split("::")[-2:])

per_thread = collections.defaultdict(list)
for tid, pc in samples:
    name, off = spots[pc]
    if name == binary:
        chain = [short(f) for f in chains.get(off, [])] or ["??"]
    else:
        chain = ["[" + name.rsplit("/", 1)[-1] + "]"]
    per_thread[tid].append(chain)

total = len(samples)
print(f"{total} samples at 1 kHz of process CPU time")
for tid, chains_ in sorted(per_thread.items(), key=lambda kv: -len(kv[1])):
    n = len(chains_)
    print(f"\n{names.get(tid, '?')} (tid {tid}): {n} samples, {100 * n / total:.1f} % of all")
    selfc, incl = collections.Counter(), collections.Counter()
    for chain in chains_:
        selfc[chain[0]] += 1
        for fn in set(chain):
            incl[fn] += 1
    print(f"  {'self %':>7} {'incl %':>7}  inlined frame")
    for fn, k in selfc.most_common(top):
        print(f"  {100 * k / n:7.1f} {100 * incl[fn] / n:7.1f}  {fn}")
EOF
