// The nonbonded pair loop has one kernel (md/nonbonded.hpp). KernelKind,
// to_string and default_kernel_kind exist only because the perfbench
// driver still names them (its machine-fingerprint line, the pair options
// and the Fft3D/SerialPme constructors); no library code reads them. They
// go with the next change to the benchmark, like sim::EngineBackend.
#pragma once

namespace repro::util {

enum class KernelKind { kSimd };
inline const char* to_string(KernelKind) { return "simd"; }
inline KernelKind default_kernel_kind() { return KernelKind::kSimd; }

}  // namespace repro::util
