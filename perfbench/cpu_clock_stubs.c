/* The calling thread's CPU clock, for Measure.cpu_ns. */

#include <time.h>
#include <caml/mlvalues.h>

value colbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
