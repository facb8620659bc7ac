/* Overlapped fsync for lib/io/io.ml: one helper pthread per file.

   [Io.fsync_begin] asks the file's helper to fsync and returns at once;
   its wait blocks until the helper is done.  The helper never touches
   the OCaml heap or runtime, so it needs no runtime lock: its fsync
   starts as soon as the kernel runs it, while the caller keeps the lock
   and goes on working, and it does not keep a domain from being joined.
   An OCaml thread in its place would first have to take the runtime
   lock from the caller, a handover that cost ~60 us per commit (a third
   of an ext4 fsync) on a 2-vCPU host.  The wait releases the runtime
   lock only when it has to block.

   State, under [m]: IDLE, then ASKED from [ask] until the helper's
   fsync returns, then DONE with [err] set until [wait] takes it, or
   STOP, on which the helper exits. */

#define _XOPEN_SOURCE 700
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

enum { IDLE, ASKED, DONE, STOP };

struct syncer {
  pthread_mutex_t m;
  pthread_cond_t c;
  pthread_t thread;
  int fd;
  int state;
  int err; /* errno of the last fsync, 0 when it succeeded */
};

#define Syncer_val(v) (*(struct syncer **)Data_custom_val(v))

static struct custom_operations syncer_ops = {
  "siri.io.syncer",           custom_finalize_default,
  custom_compare_default,     custom_hash_default,
  custom_serialize_default,   custom_deserialize_default,
  custom_compare_ext_default, custom_fixed_length_default
};

static void *serve(void *arg)
{
  struct syncer *s = arg;
  pthread_mutex_lock(&s->m);
  for (;;) {
    while (s->state != ASKED && s->state != STOP)
      pthread_cond_wait(&s->c, &s->m);
    if (s->state == STOP) break;
    pthread_mutex_unlock(&s->m);
    int err = fsync(s->fd) == 0 ? 0 : errno;
    pthread_mutex_lock(&s->m);
    s->err = err;
    s->state = DONE;
    pthread_cond_broadcast(&s->c);
  }
  pthread_mutex_unlock(&s->m);
  return NULL;
}

CAMLprim value siri_io_syncer_start(value vfd)
{
  struct syncer *s = malloc(sizeof *s);
  if (s == NULL) caml_raise_out_of_memory();
  pthread_mutex_init(&s->m, NULL);
  pthread_cond_init(&s->c, NULL);
  s->fd = Int_val(vfd);
  s->state = IDLE;
  s->err = 0;
  /* Signals are for the OCaml threads: the helper starts with all of
     them blocked. */
  sigset_t all, old;
  sigfillset(&all);
  pthread_sigmask(SIG_BLOCK, &all, &old);
  int rc = pthread_create(&s->thread, NULL, serve, s);
  pthread_sigmask(SIG_SETMASK, &old, NULL);
  if (rc != 0) {
    pthread_cond_destroy(&s->c);
    pthread_mutex_destroy(&s->m);
    free(s);
    caml_unix_error(rc, "pthread_create", Nothing);
  }
  value v = caml_alloc_custom(&syncer_ops, sizeof(struct syncer *), 0, 1);
  Syncer_val(v) = s;
  return v;
}

CAMLprim value siri_io_syncer_ask(value v)
{
  struct syncer *s = Syncer_val(v);
  pthread_mutex_lock(&s->m);
  s->state = ASKED;
  pthread_cond_signal(&s->c);
  pthread_mutex_unlock(&s->m);
  return Val_unit;
}

/* Block, without the runtime lock, while the helper is busy. */
static void await_idle(struct syncer *s)
{
  pthread_mutex_lock(&s->m);
  if (s->state == ASKED) {
    pthread_mutex_unlock(&s->m);
    caml_enter_blocking_section();
    pthread_mutex_lock(&s->m);
    while (s->state == ASKED) pthread_cond_wait(&s->c, &s->m);
    pthread_mutex_unlock(&s->m);
    caml_leave_blocking_section();
    pthread_mutex_lock(&s->m);
  }
}

CAMLprim value siri_io_syncer_wait(value v, value vpath)
{
  CAMLparam2(v, vpath);
  struct syncer *s = Syncer_val(v);
  await_idle(s);
  int err = s->state == DONE ? s->err : 0;
  s->state = IDLE;
  pthread_mutex_unlock(&s->m);
  if (err != 0) caml_unix_error(err, "fsync", vpath);
  CAMLreturn(Val_unit);
}

CAMLprim value siri_io_syncer_stop(value v)
{
  struct syncer *s = Syncer_val(v);
  await_idle(s);
  s->state = STOP;
  pthread_cond_signal(&s->c);
  pthread_mutex_unlock(&s->m);
  caml_enter_blocking_section();
  pthread_join(s->thread, NULL);
  caml_leave_blocking_section();
  pthread_cond_destroy(&s->c);
  pthread_mutex_destroy(&s->m);
  free(s);
  return Val_unit;
}
