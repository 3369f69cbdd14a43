#include "data/locality.hpp"

#include <cstdint>
#include <string>

namespace pga::data {
namespace {

class LocalityPolicy final : public wms::SchedulingPolicy {
 public:
  explicit LocalityPolicy(const TransferManager& manager) : manager_(&manager) {}

  [[nodiscard]] std::string name() const override { return kLocalityPolicyName; }

  void prepare(const wms::ConcreteWorkflow& workflow) override {
    workflow_ = &workflow;
  }

  [[nodiscard]] std::size_t pick(const std::deque<std::uint32_t>& ready) override {
    // Every candidate runs on the workflow's one site; without an element
    // there every score is 0 and FIFO's front wins.
    const StorageElement* element = manager_->find_element(workflow_->site());
    if (element == nullptr) return 0;
    // Argmax with earliest-position tie-break (matches the argmax_position
    // discipline of the wms policies: strict > keeps FIFO order on ties).
    std::size_t best = 0;
    std::uint64_t best_score = resident_bytes(*element, ready.front());
    for (std::size_t position = 1; position < ready.size(); ++position) {
      const std::uint64_t score = resident_bytes(*element, ready[position]);
      if (score > best_score) {
        best = position;
        best_score = score;
      }
    }
    return best;
  }

 private:
  /// Total bytes of the job's argument LFNs already held on `element`, the
  /// storage element at the job's site. Args that aren't held (or aren't
  /// LFNs at all) add 0.
  [[nodiscard]] std::uint64_t resident_bytes(const StorageElement& element,
                                             std::uint32_t index) const {
    std::uint64_t total = 0;
    for (const std::string& lfn : workflow_->jobs()[index].args) {
      total += element.held_bytes(lfn);
    }
    return total;
  }

  const TransferManager* manager_;
  const wms::ConcreteWorkflow* workflow_ = nullptr;
};

}  // namespace

std::unique_ptr<wms::SchedulingPolicy> make_locality_policy(
    const TransferManager& manager) {
  return std::make_unique<LocalityPolicy>(manager);
}

}  // namespace pga::data
