// Verdict tables for the spec grammars (--decomp, --faults, --topology,
// --power): each row names an input and what the grammar makes of it,
// either its canonical to_string or a refusal.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace repro {

struct SpecVerdict {
  const char* input;
  const char* canonical;  // nullptr: the grammar refuses the input
};

// `canonical(text)` parses `text` and returns the spec's to_string.
template <class Canonical>
void expect_verdicts(const std::vector<SpecVerdict>& rows,
                     Canonical canonical) {
  for (const SpecVerdict& row : rows) {
    SCOPED_TRACE(std::string("input '") + row.input + "'");
    if (row.canonical == nullptr) {
      EXPECT_THROW(canonical(row.input), util::Error);
    } else {
      EXPECT_EQ(canonical(row.input), row.canonical);
    }
  }
}

}  // namespace repro
