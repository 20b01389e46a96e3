// The spec grammars (--decomp, --faults, --topology, --power) and the
// shared helpers in util/parse.hpp they are built on:
//  - split keeps every field, key_value splits at the first '=', and the
//    field parsers' errors name the grammar, the field and the text;
//  - a seeded mutation harness: thousands of byte flips, deletions,
//    duplications and inserted separators of valid specs must each be
//    refused with util::Error or give a spec whose canonical string
//    parses back to itself. Nothing else may escape, and under ASan and
//    UBSan nothing may read out of bounds.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "charmm/decomp_spec.hpp"
#include "net/faults.hpp"
#include "net/topology.hpp"
#include "perf/power.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace repro {
namespace {

using Fields = std::vector<std::string_view>;

TEST(SpecFieldsTest, SplitKeepsEveryField) {
  EXPECT_EQ(util::split("a,,b", ','), (Fields{"a", "", "b"}));
  EXPECT_EQ(util::split("", ','), (Fields{""}));
  EXPECT_EQ(util::split(",", ','), (Fields{"", ""}));
  EXPECT_EQ(util::split("4x8", 'x'), (Fields{"4", "8"}));
}

TEST(SpecFieldsTest, KeyValueSplitsAtTheFirstEquals) {
  const util::KeyValue nested = util::key_value("phase:a=b=1");
  EXPECT_EQ(nested.key, "phase:a");
  EXPECT_EQ(nested.value, "b=1");
  EXPECT_TRUE(nested.has_value);
  const util::KeyValue bare = util::key_value("loss");
  EXPECT_EQ(bare.key, "loss");
  EXPECT_EQ(bare.value, "");
  EXPECT_FALSE(bare.has_value);
  EXPECT_TRUE(util::key_value("over=").has_value);
}

TEST(SpecFieldsTest, FieldErrorsNameGrammarFieldAndText) {
  EXPECT_EQ(util::int_field("topology", "radix", "8"), 8);
  EXPECT_EQ(util::real_field("fault", "rto", "2e-3"), 2e-3);
  auto message = [](const std::function<void()>& parse) {
    try {
      parse();
    } catch (const util::Error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(
      message([] { util::int_field("decomposition", "units", "0", 1, 9); }),
      "decomposition spec: bad units value '0' (expected an integer in "
      "[1, 9])");
  EXPECT_EQ(message([] { util::real_field("fault", "rto", "inf"); }),
            "fault spec: bad rto value 'inf' (expected a finite decimal "
            "number)");
}

// --- mutation harness ------------------------------------------------------

struct Grammar {
  const char* name;
  std::vector<std::string> seeds;
  // Parses a spec and returns its canonical string.
  std::function<std::string(const std::string&)> canonical;
};

std::vector<Grammar> grammars() {
  return {
      {"decomposition",
       {"force", "task:pme=3", "spatial:ldb=refine,units=32",
        "spatial:grid=6x3x4:pme=pencil:grid=2x4:ldb=greedy,units=16"},
       [](const std::string& text) {
         return charmm::to_string(charmm::parse_decomp_spec(text));
       }},
      {"fault",
       {"loss=0.005,recovery=timeout;straggler=3,x=1.5",
        "loss=0.01,rto=0.1,backoff=3,retries=8,recovery=linklevel;"
        "degrade=0-2,bw=0.5,lat=0.001",
        "straggler=1,x=1.5,period=0.05,dur=0.005;stall=3,at=0.5,dur=0.2",
        "loss=0.99999"},
       [](const std::string& text) {
         return net::to_string(net::parse_fault_spec(text));
       }},
      {"topology",
       {"single", "fattree:radix=16,over=4", "torus:x=4,y=4,z=2"},
       [](const std::string& text) {
         return net::to_string(net::parse_topology_spec(text));
       }},
      {"power",
       {"static=55,dynamic=25,phase:pme_recip=18",
        "dynamic=25.5,static=0.5", "static=0.0005,dynamic=99999"},
       [](const std::string& text) {
         return perf::to_string(perf::parse_power_spec(text));
       }},
  };
}

// One to three edits: flip a bit of a byte, delete or duplicate a short
// run, or insert a separator the grammars use.
std::string mutate(std::string text, util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform_index(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.uniform_index(text.size() + 1);
    const std::size_t run = 1 + rng.uniform_index(6);
    switch (rng.uniform_index(4)) {
      case 0:
        if (at < text.size()) {
          text[at] ^= static_cast<char>(1 << rng.uniform_index(8));
        }
        break;
      case 1:
        text.erase(at, run);
        break;
      case 2:
        text.insert(at, text.substr(at, run));
        break;
      default:
        text.insert(at, 1, ":,;=x"[rng.uniform_index(5)]);
    }
  }
  return text;
}

TEST(SpecGrammarMutationTest, EveryMutantIsRefusedOrCanonical) {
  constexpr int kMutantsPerSeed = 1000;
  for (const Grammar& grammar : grammars()) {
    SCOPED_TRACE(grammar.name);
    util::Rng rng(2002);
    int accepted = 0;
    int refused = 0;
    for (const std::string& seed : grammar.seeds) {
      for (int i = 0; i < kMutantsPerSeed; ++i) {
        const std::string mutant = mutate(seed, rng);
        std::string canonical;
        try {
          canonical = grammar.canonical(mutant);
        } catch (const util::Error&) {
          ++refused;
          continue;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "'" << mutant << "' threw " << e.what();
          continue;
        }
        ++accepted;
        try {
          EXPECT_EQ(grammar.canonical(canonical), canonical)
              << "mutant '" << mutant << "'";
        } catch (const std::exception& e) {
          ADD_FAILURE() << "canonical '" << canonical << "' of '" << mutant
                        << "' is refused: " << e.what();
        }
      }
    }
    // The harness must reach both verdicts in every grammar.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(refused, 0);
  }
}

}  // namespace
}  // namespace repro
