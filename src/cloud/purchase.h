/**
 * @file
 * Cloud purchase options.
 *
 * GAIA schedules over the three standard cloud offerings the paper
 * studies: long-term reserved capacity (paid upfront for the whole
 * contract, used or not), pay-as-you-go on-demand instances, and
 * discounted but revocable spot instances.
 */

#ifndef GAIA_CLOUD_PURCHASE_H
#define GAIA_CLOUD_PURCHASE_H

#include <cstdint>
#include <string>

namespace gaia {

/** How a unit of compute is purchased. One byte wide: it is stored
 *  in every placed segment of every job outcome. */
enum class PurchaseOption : std::uint8_t
{
    Reserved,
    OnDemand,
    Spot,
};

/** Display name, e.g. "reserved". */
std::string purchaseName(PurchaseOption option);

} // namespace gaia

#endif // GAIA_CLOUD_PURCHASE_H
