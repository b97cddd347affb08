// Flag parsing for the test binaries that own main() (the fuzzers' replay
// flags such as --seed=N).  bench/support/bench_main.hpp style:
// std::from_chars, reject garbage, exit 2 so CI distinguishes usage
// errors from test failures.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace partib::test {

/// Parse `value`, the text after "<flag>=", as an unsigned integer.
inline std::uint64_t parse_u64_flag(const char* value, const char* flag) {
  std::uint64_t parsed = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "invalid %s value: '%s'\n", flag, value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace partib::test
