#include "hbosim/soc/resource.hpp"

#include "hbosim/common/error.hpp"

namespace hbosim::soc {

const char* delegate_name(Delegate d) {
  switch (d) {
    case Delegate::Cpu: return "CPU";
    case Delegate::Gpu: return "GPU";
    case Delegate::Nnapi: return "NNAPI";
  }
  return "?";
}

char delegate_code(Delegate d) {
  switch (d) {
    case Delegate::Cpu: return 'C';
    case Delegate::Gpu: return 'G';
    case Delegate::Nnapi: return 'N';
  }
  return '?';
}

Delegate delegate_from_index(int i) {
  HB_REQUIRE(i >= 0 && i < kNumDelegates, "delegate index out of range");
  return static_cast<Delegate>(i);
}

}  // namespace hbosim::soc
