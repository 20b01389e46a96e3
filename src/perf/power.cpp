#include "perf/power.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string_view>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace repro::perf {

namespace {

// %g, or where %g would print an exponent, which the watt syntax
// refuses, the shortest fixed form that parses back to `w`.
std::string format_watts(double w) {
  char buf[400];  // any double's fixed form fits (at most 326 characters)
  std::snprintf(buf, sizeof buf, "%g", w);
  if (std::strchr(buf, 'e') == nullptr) return buf;
  return {buf, std::to_chars(buf, std::end(buf), w,
                             std::chars_format::fixed).ptr};
}

}  // namespace

std::string to_string(const PowerModel& model) {
  std::string out = "static=" + format_watts(model.static_watts_per_node) +
                    ",dynamic=" + format_watts(model.dynamic_watts);
  for (const auto& [name, watts] : model.phase_watts) {
    out += ",phase:" + name + "=" + format_watts(watts);
  }
  return out;
}

PowerModel parse_power_spec(const std::string& text) {
  PowerModel model;
  bool seen_static = false;
  bool seen_dynamic = false;
  // Watt values are plain decimals: digits and a point, no sign or
  // exponent.
  auto watts = [](std::string_view key, std::string_view value) {
    if (value.find_first_not_of("0123456789.") != std::string_view::npos) {
      util::bad_field("power", key, value, "digits and a point");
    }
    return util::real_field("power", key, value);
  };
  for (const std::string_view option : util::split(text, ',')) {
    const auto [key, value, has_value] = util::key_value(option);
    if (key == "static" && has_value) {
      if (seen_static) throw util::Error("power spec: duplicate static=");
      seen_static = true;
      model.static_watts_per_node = watts(key, value);
    } else if (key == "dynamic" && has_value) {
      if (seen_dynamic) throw util::Error("power spec: duplicate dynamic=");
      seen_dynamic = true;
      model.dynamic_watts = watts(key, value);
    } else if (key.starts_with("phase:") && key.size() > 6 && has_value) {
      const std::string name(key.substr(6));
      if (model.phase_watts.count(name) != 0) {
        throw util::Error("power spec: duplicate phase override '" + name +
                          "'");
      }
      model.phase_watts[name] = watts(key, value);
    } else {
      throw util::Error("power spec: bad option '" + std::string(option) +
                        "' (expected static=S,dynamic=D[,phase:NAME=W]...)");
    }
  }
  if (!seen_static || !seen_dynamic) {
    throw util::Error("power spec: must set both static= and dynamic=");
  }
  return model;
}

}  // namespace repro::perf
