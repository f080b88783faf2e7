#include "hbosim/marketsvc/market.hpp"

#include <string>

#include "hbosim/common/error.hpp"

namespace hbosim::marketsvc {

const char* market_policy_name(MarketPolicy p) {
  switch (p) {
    case MarketPolicy::ProportionalFair:
      return "pf";
    case MarketPolicy::MaxMin:
      return "maxmin";
    case MarketPolicy::Pricing:
      return "price";
  }
  return "?";
}

MarketPolicy market_policy_from_name(std::string_view name) {
  if (name == "pf" || name == "proportional-fair") {
    return MarketPolicy::ProportionalFair;
  }
  if (name == "maxmin" || name == "max-min") {
    return MarketPolicy::MaxMin;
  }
  if (name == "price" || name == "pricing") {
    return MarketPolicy::Pricing;
  }
  HB_REQUIRE(false, "unknown market policy '" + std::string(name) +
                        "' (expected pf, maxmin or price)");
}

}  // namespace hbosim::marketsvc
