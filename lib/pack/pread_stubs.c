/* Positioned segment read for lib/pack/pack.ml.

   OCaml's Unix has no pread, and lseek + read on a shared descriptor
   needs a lock around the pair.  pread(2) takes the offset as an
   argument, so readers on any domain share one descriptor per segment
   without one.  As Unix.read does, the runtime lock is released around
   each system call, which reads into a stack bounce buffer of at most
   64 KiB; the copy into the OCaml [bytes] happens after the lock is
   taken back, since a minor-heap [bytes] can move while it is released.

   Returns the byte count read: [len], or less at end of file (a torn
   tail).  Errors other than EINTR raise Unix.Unix_error. */

#define _XOPEN_SOURCE 700
#include <errno.h>
#include <string.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define BOUNCE 65536

CAMLprim value siri_pack_pread(value vfd, value vbuf, value vpos, value vlen,
                               value voff)
{
  CAMLparam1(vbuf);
  char bounce[BOUNCE];
  int fd = Int_val(vfd);
  intnat pos = Long_val(vpos), len = Long_val(vlen), done = 0;
  off_t off = (off_t)Long_val(voff);
  while (done < len) {
    size_t want = len - done < BOUNCE ? (size_t)(len - done) : BOUNCE;
    caml_enter_blocking_section();
    ssize_t got = pread(fd, bounce, want, off + done);
    int err = errno;
    caml_leave_blocking_section();
    if (got < 0) {
      if (err == EINTR) continue;
      caml_unix_error(err, "pread", Nothing);
    }
    if (got == 0) break;
    memcpy(&Byte(vbuf, pos + done), bounce, (size_t)got);
    done += got;
  }
  CAMLreturn(Val_long(done));
}
