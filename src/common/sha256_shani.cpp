// SHA-NI block-compression kernel (SHA256RNDS2 / SHA256MSG1 / SHA256MSG2).
//
// The instructions keep the eight working words as two vectors, ABEF and
// CDGH; each SHA256RNDS2 runs two rounds from the low 64 bits of a
// (message + round constant) vector, so a group of four rounds is two
// RNDS2 with the upper half shuffled down in between. The message
// schedule for group j >= 4 is
//   W[j] = MSG2(MSG1(W[j-4], W[j-3]) + ALIGNR(W[j-1], W[j-2], 4), W[j-1]),
// the vector form of FIPS 180-4's σ0/σ1 recurrence. Only this translation
// unit gets -msha -msse4.1 (PSHUFB/PALIGNR are SSSE3, PBLENDW is SSE4.1).
#include "common/sha256_kernels.h"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace pahoehoe::sha256::detail {
namespace {

/// Four rounds on message group `w` with round constants k[0..3].
inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                    const uint32_t* k) {
  const __m128i msg = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0e));
}

/// Message group j from groups j-4 .. j-1.
inline __m128i schedule(__m128i w4, __m128i w3, __m128i w2, __m128i w1) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3),
                                  _mm_alignr_epi8(w1, w2, 4));
  return _mm_sha256msg2_epu32(t, w1);
}

void compress_shani(uint32_t* state, const uint8_t* data, size_t nblocks) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const uint32_t* k = kRoundConstants.data();

  // state[0..7] = A..H  ->  ABEF / CDGH, high word first.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (size_t b = 0; b < nblocks; ++b, data += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    const auto load = [&](int i) {
      return _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    };
    __m128i w0 = load(0);
    __m128i w1 = load(1);
    __m128i w2 = load(2);
    __m128i w3 = load(3);
    rounds4(abef, cdgh, w0, k + 0);
    rounds4(abef, cdgh, w1, k + 4);
    rounds4(abef, cdgh, w2, k + 8);
    rounds4(abef, cdgh, w3, k + 12);
    for (int g = 16; g < 64; g += 16) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, k + g);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, k + g + 4);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, k + g + 8);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, k + g + 12);
    }
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }

  // ABEF / CDGH  ->  state[0..7] = A..H.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

}  // namespace

CompressFn shani_impl() { return &compress_shani; }

}  // namespace pahoehoe::sha256::detail

#else  // !(__SHA__ && __SSE4_1__)

namespace pahoehoe::sha256::detail {
CompressFn shani_impl() { return nullptr; }
}  // namespace pahoehoe::sha256::detail

#endif
