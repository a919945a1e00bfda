/* SIGPROF sampling profiler, loaded with LD_PRELOAD by
 * scripts/sample-profile.sh. With SAMPLE_OUT=FILE set, a POSIX timer on the
 * process CPU clock asks for a sample every 1/997 s of CPU time, and the
 * interrupted thread appends one record of u64s to FILE: the frame count n,
 * the PC, then n - 1 return addresses from a frame-pointer walk that stays
 * inside that thread's stack. FILE.maps gets the process's mappings at
 * start-up.
 *
 * The kernel checks CPU-time timers on its scheduler tick, so the real rate
 * is at most one sample per tick, whatever HZ asks for: a C busy loop of
 * 2 CPU seconds records 500-501 samples, 250 per CPU second, on an x86-64
 * Linux 6.18 host with a 250 Hz tick. The tick bounds the whole process,
 * not each thread: two threads spinning 1 CPU second each record about 250
 * samples, not 500 (setitimer's timer recorded about 350), so a parallel
 * run gets fewer samples per CPU second than a serial one.
 *
 * The timer is a timer_create one, not setitimer's: execve deletes it, so
 * a profiled process that execs another program (sh -c 'exec ...') does
 * not leave it armed to kill the new image with SIGPROF. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define HZ 997
#define MAX_FRAMES 128
static int out_fd = -1;
static __thread __attribute__((tls_model("initial-exec"))) uintptr_t stack_lo, stack_hi;

static void set_stack_bounds(void) {
    pthread_attr_t attr;
    void *base;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
        stack_lo = (uintptr_t)base;
        stack_hi = stack_lo + size;
    }
    pthread_attr_destroy(&attr);
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t rec[MAX_FRAMES + 1];
#if defined(__x86_64__)
    uintptr_t pc = mc->gregs[REG_RIP], fp = mc->gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = mc->pc, fp = mc->regs[29];
#else
#error "sample-profile.c: unsupported architecture"
#endif
    int n = 0;
    rec[++n] = pc;
    /* A frame is [saved fp, return address]; frames only move up the stack. */
    while (n < MAX_FRAMES && fp % 8 == 0 && fp >= stack_lo && fp + 16 <= stack_hi) {
        uintptr_t *frame = (uintptr_t *)fp;
        if (frame[1] == 0) break;
        rec[++n] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    rec[0] = n;
    int saved = errno;
    ssize_t unused = write(out_fd, rec, (size_t)(n + 1) * sizeof rec[0]);
    (void)unused;
    errno = saved;
}

/* Threads record their stack bounds before running their start routine. */
struct start { void *(*fn)(void *); void *arg; };

static void *start_sampled(void *p) {
    struct start s = *(struct start *)p;
    free(p);
    set_stack_bounds();
    return s.fn(s.arg);
}

int pthread_create(pthread_t *t, const pthread_attr_t *attr, void *(*fn)(void *), void *arg) {
    static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *);
    if (!real) real = (int (*)(pthread_t *, const pthread_attr_t *, void *(*)(void *), void *))dlsym(RTLD_NEXT, "pthread_create");
    struct start *s = malloc(sizeof *s);
    if (!s) return EAGAIN;
    s->fn = fn, s->arg = arg;
    int rc = real(t, attr, start_sampled, s);
    if (rc != 0) free(s);
    return rc;
}

__attribute__((constructor)) static void sampler_start(void) {
    const char *out = getenv("SAMPLE_OUT");
    if (!out) return;
    out_fd = open(out, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    char path[4096];
    snprintf(path, sizeof path, "%s.maps", out);
    FILE *src = fopen("/proc/self/maps", "r"), *dst = fopen(path, "w");
    for (int c; src && dst && (c = fgetc(src)) != EOF;) fputc(c, dst);
    if (src) fclose(src);
    if (dst) fclose(dst);
    if (out_fd < 0) return;
    /* Child processes run unprofiled. */
    unsetenv("LD_PRELOAD");
    unsetenv("SAMPLE_OUT");
    set_stack_bounds();
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent sev = {0};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    timer_t timer;
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &timer) != 0) return;
    struct itimerspec its = {{0, 1000000000L / HZ}, {0, 1000000000L / HZ}};
    timer_settime(timer, 0, &its, NULL);
}
