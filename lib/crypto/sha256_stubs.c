/* SHA-256 block compression (FIPS 180-4) for lib/crypto/sha256.ml.

   The OCaml side owns buffering and padding; this file only compresses
   whole 64-byte blocks into a chaining state.  The state is a 32-byte
   OCaml [bytes] holding H0..H7 big-endian, i.e. exactly the digest
   layout, so finalisation is a copy.

   Two implementations of the same rounds:
   - [blocks_portable]: plain C, any host.
   - [blocks_shani]: x86-64 SHA extensions (SHA-NI), compiled for that
     target by function attribute so the file needs no -march flag.
   [siri_sha256_select] picks one from CPUID, once, at module init; it is
   the only mutable global here.  Both stubs are [@@noalloc]: they touch
   no OCaml heap beyond the buffers they are handed. */

#include <stdint.h>
#include <stddef.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2 };

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

static inline uint32_t rotr(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

static void blocks_portable(uint32_t h[8], const unsigned char *p, size_t n)
{
  uint32_t w[64];
  for (; n > 0; n--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = hh + s1 + ch + K[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_SHANI_PATH 1
#include <cpuid.h>
#include <immintrin.h>

/* The SHA-NI rounds keep the state as two vectors, ABEF and CDGH; each
   sha256rnds2 does two rounds, so one 4-word message group is one pair.
   The schedule for group i+4 is built from groups i..i+3 with
   sha256msg1/msg2, the vector form of the sigma0/sigma1 recurrence. */
__attribute__((target("sha,sse4.1")))
static void blocks_shani(uint32_t h[8], const unsigned char *p, size_t n)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128((const __m128i *)&h[0]);   /* DCBA */
  __m128i st1 = _mm_loadu_si128((const __m128i *)&h[4]);   /* HGFE */
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                      /* CDAB */
  st1 = _mm_shuffle_epi32(st1, 0x1B);                      /* EFGH */
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);              /* ABEF */
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);                   /* CDGH */

  for (; n > 0; n--, p += 64) {
    __m128i abef = st0, cdgh = st1;
    __m128i m[4];
    for (int i = 0; i < 4; i++)
      m[i] = _mm_shuffle_epi8(
        _mm_loadu_si128((const __m128i *)(p + 16 * i)), bswap);
#pragma GCC unroll 16
    for (int i = 0; i < 16; i++) {
      __m128i wk = _mm_add_epi32(m[i & 3],
                                 _mm_loadu_si128((const __m128i *)&K[4 * i]));
      st1 = _mm_sha256rnds2_epu32(st1, st0, wk);
      st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(wk, 0x0E));
      if (i < 12) {
        __m128i t = _mm_sha256msg1_epu32(m[i & 3], m[(i + 1) & 3]);
        t = _mm_add_epi32(t, _mm_alignr_epi8(m[(i + 3) & 3], m[(i + 2) & 3], 4));
        m[i & 3] = _mm_sha256msg2_epu32(t, m[(i + 3) & 3]);
      }
    }
    st0 = _mm_add_epi32(st0, abef);
    st1 = _mm_add_epi32(st1, cdgh);
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);                      /* FEBA */
  st1 = _mm_shuffle_epi32(st1, 0xB1);                      /* DCHG */
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);                   /* DCBA */
  st1 = _mm_alignr_epi8(st1, tmp, 8);                      /* HGFE */
  _mm_storeu_si128((__m128i *)&h[0], st0);
  _mm_storeu_si128((__m128i *)&h[4], st1);
}

static int cpu_has_shani(void)
{
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  int ssse3 = (c >> 9) & 1, sse41 = (c >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  int sha = (b >> 29) & 1;
  return ssse3 && sse41 && sha;
}
#endif

typedef void (*kernel)(uint32_t[8], const unsigned char *, size_t);

static kernel selected = blocks_portable;

static void run(kernel k, value st, value buf, value off, value nblocks)
{
  unsigned char *s = Bytes_val(st);
  uint32_t h[8];
  for (int i = 0; i < 8; i++) h[i] = load_be32(s + 4 * i);
  k(h, Bytes_val(buf) + Long_val(off), (size_t)Long_val(nblocks));
  for (int i = 0; i < 8; i++) store_be32(s + 4 * i, h[i]);
}

value siri_sha256_blocks(value st, value buf, value off, value nblocks)
{
  run(selected, st, buf, off, nblocks);
  return Val_unit;
}

value siri_sha256_blocks_portable(value st, value buf, value off,
                                  value nblocks)
{
  run(blocks_portable, st, buf, off, nblocks);
  return Val_unit;
}

/* Returns true when the SHA-NI path was selected. */
value siri_sha256_select(value unit)
{
  (void)unit;
#ifdef HAVE_SHANI_PATH
  if (cpu_has_shani()) {
    selected = blocks_shani;
    return Val_true;
  }
#endif
  return Val_false;
}
