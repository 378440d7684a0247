// Typed errors shared across the query engines.

#ifndef PDR_COMMON_ERRORS_H_
#define PDR_COMMON_ERRORS_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "pdr/common/geometry.h"

namespace pdr {

/// Silent data corruption caught by an integrity check: a stored checksum
/// disagrees with the bytes it covers. Raised by the storage layer when a
/// page trailer, checkpoint descriptor, or snapshot version fails
/// verification and no redundant copy can heal it (see
/// storage/page_format.h for the trailer format and DESIGN.md §16 for the
/// threat model). Distinct from CrashError (the process "died"; state is
/// consistent) and TransientExhaustedError (I/O kept failing; bytes are
/// intact): here the device *lied* — the read succeeded but returned
/// damaged data, so the caller must not serve the page as an answer.
class CorruptionError : public std::runtime_error {
 public:
  CorruptionError(const std::string& file, uint32_t page_id, uint64_t offset,
                  uint64_t expected, uint64_t actual)
      : std::runtime_error("corruption detected: " + file + " page " +
                           (page_id == static_cast<uint32_t>(-1)
                                ? std::string("-")
                                : std::to_string(page_id)) +
                           " at offset " + std::to_string(offset) +
                           ": checksum expected " + Hex(expected) +
                           ", actual " + Hex(actual)),
        file_(file),
        page_id_(page_id),
        offset_(offset),
        expected_(expected),
        actual_(actual) {}

  const std::string& file() const { return file_; }
  uint32_t page_id() const { return page_id_; }
  uint64_t offset() const { return offset_; }
  uint64_t expected() const { return expected_; }
  uint64_t actual() const { return actual_; }

 private:
  static std::string Hex(uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4) {
      out += digits[(v >> shift) & 0xF];
    }
    return out;
  }

  std::string file_;
  uint32_t page_id_;
  uint64_t offset_;
  uint64_t expected_;
  uint64_t actual_;
};

/// Stored or logged bytes that do not decode: a truncated field, a wrong
/// magic or kind tag, or a count the remaining bytes cannot hold. Unlike
/// CorruptionError no checksum disagrees (the bytes may be intact but not
/// what the reader expects); like it, the caller must refuse the input
/// rather than build state from it.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// A query timestamp outside the engine's horizon [now, now + H].
///
/// Both engines keep per-tick state (histogram slices, Chebyshev slices)
/// only for the horizon window H = U + W: every object re-reports within U
/// ticks, so predictions past now + H would extrapolate from motion
/// vectors the protocol guarantees are stale. Before this error existed
/// the out-of-range slice access was assert-only — silently wrong answers
/// in release builds — so the engines now validate q_t at entry and
/// reject with this typed error instead.
class HorizonError : public std::out_of_range {
 public:
  HorizonError(const char* engine, Tick q_t, Tick now, Tick horizon)
      : std::out_of_range(std::string(engine) + " query at t=" +
                          std::to_string(q_t) + " outside horizon [" +
                          std::to_string(now) + ", " +
                          std::to_string(now + horizon) +
                          "] (H=" + std::to_string(horizon) + ")"),
        q_t_(q_t),
        now_(now),
        horizon_(horizon) {}

  Tick q_t() const { return q_t_; }
  Tick now() const { return now_; }
  Tick horizon() const { return horizon_; }

 private:
  Tick q_t_;
  Tick now_;
  Tick horizon_;
};

/// Validates q_t against [now, now + horizon]; throws HorizonError.
inline void ValidateHorizon(const char* engine, Tick q_t, Tick now,
                            Tick horizon) {
  if (q_t < now || q_t > now + horizon) {
    throw HorizonError(engine, q_t, now, horizon);
  }
}

}  // namespace pdr

#endif  // PDR_COMMON_ERRORS_H_
