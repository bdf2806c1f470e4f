/* Preloaded (LD_PRELOAD) into the archpred worker processes of a traced
   train-sharded run.  It times every call the process makes to
   nanosleep / clock_nanosleep (the worker's poll sleeps while the units
   left are claimed by the other worker) and to fsync / fdatasync (the
   journal's commit syncs), and at exit writes

     <sleep ns> <sleep calls> <sync ns> <sync calls>

   to the file named by $PERFBENCH_BLOCKING_OUT.  Nothing is written when
   the variable is unset or the process dies on a signal. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <unistd.h>

static long long sleep_ns, sleep_calls, sync_ns, sync_calls;

static long long now_ns(void)
{
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return t.tv_sec * 1000000000LL + t.tv_nsec;
}

static void add(long long *ns, long long *calls, long long t0)
{
  __atomic_add_fetch(ns, now_ns() - t0, __ATOMIC_RELAXED);
  __atomic_add_fetch(calls, 1, __ATOMIC_RELAXED);
}

int nanosleep(const struct timespec *req, struct timespec *rem)
{
  static int (*real)(const struct timespec *, struct timespec *);
  if (!real) real = dlsym(RTLD_NEXT, "nanosleep");
  long long t0 = now_ns();
  int r = real(req, rem);
  add(&sleep_ns, &sleep_calls, t0);
  return r;
}

int clock_nanosleep(clockid_t clk, int flags, const struct timespec *req,
                    struct timespec *rem)
{
  static int (*real)(clockid_t, int, const struct timespec *,
                     struct timespec *);
  if (!real) real = dlsym(RTLD_NEXT, "clock_nanosleep");
  long long t0 = now_ns();
  int r = real(clk, flags, req, rem);
  add(&sleep_ns, &sleep_calls, t0);
  return r;
}

int fsync(int fd)
{
  static int (*real)(int);
  if (!real) real = dlsym(RTLD_NEXT, "fsync");
  long long t0 = now_ns();
  int r = real(fd);
  add(&sync_ns, &sync_calls, t0);
  return r;
}

int fdatasync(int fd)
{
  static int (*real)(int);
  if (!real) real = dlsym(RTLD_NEXT, "fdatasync");
  long long t0 = now_ns();
  int r = real(fd);
  add(&sync_ns, &sync_calls, t0);
  return r;
}

__attribute__((destructor)) static void report(void)
{
  const char *out = getenv("PERFBENCH_BLOCKING_OUT");
  if (!out) return;
  FILE *f = fopen(out, "w");
  if (!f) return;
  fprintf(f, "%lld %lld %lld %lld\n", sleep_ns, sleep_calls, sync_ns,
          sync_calls);
  fclose(f);
}
