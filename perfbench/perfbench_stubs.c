/* wait4(2) with resource usage, and a monotonic clock: the two things the
   benchmark needs that OCaml's Unix library does not expose. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Blocks until [pid] ends. Returns (code, user_s, sys_s, maxrss_kb), where
   code is the exit status, or minus the signal number that killed it. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid), r;
  int status = 0, err = 0;
  struct rusage ru;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
           : WIFSIGNALED(status) ? -WTERMSIG(status) : -255;
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, caml_copy_double((double)ru.ru_utime.tv_sec
                                       + ru.ru_utime.tv_usec * 1e-6));
  Store_field(res, 2, caml_copy_double((double)ru.ru_stime.tv_sec
                                       + ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value perfbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + ts.tv_nsec * 1e-9);
}
