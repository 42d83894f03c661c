// Fuzz target: model loading on arbitrary bytes — the formats a daemon
// will mmap or stream from disk (text, binary v3 "FHCMDLB3" with its
// sparse "FHCFRST2" forest image) plus the raw SectionedView container
// walk underneath v3, and the retired binary versions (v1, v2) and
// "FHCFRST1" forest, which must be refused cleanly.
//
// Contract under test: every loader either succeeds or throws a
// std::exception subclass — no crashes, no OOM from attacker-chosen
// counts (the kMaxModelClasses / kMaxModelTrainRows caps exist because
// this target found "classes 2000000000" pre-allocating gigabytes), no
// out-of-bounds reads from forged section tables. A model that loads
// successfully must also re-save without throwing.
#include <cstdint>
#include <cstring>
#include <exception>
#include <span>
#include <sstream>
#include <string>

#include "core/classifier.hpp"
#include "util/sectioned.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data), size);

  // Raw container walk (what fhc_inspect does before any model logic).
  try {
    const fhc::util::SectionedView view =
        fhc::util::SectionedView::attach(bytes, fhc::core::kBinaryModelMagic);
    view.verify_checksums();
    for (const auto& entry : view.entries()) {
      (void)view.section(entry.tag_view());
    }
  } catch (const std::exception&) {
  }

  // Binary loader (v3; older versions are refused). keepalive nullptr is fine:
  // `bytes` outlives the model inside this call.
  if (fhc::core::FuzzyHashClassifier::is_binary_model(bytes)) {
    try {
      fhc::core::FuzzyHashClassifier model;
      model.load_binary(bytes, nullptr);
      std::ostringstream resaved;
      model.save(resaved);  // a loaded model must serialize cleanly
    } catch (const std::exception&) {
    }
  }

  // Text loader on the same bytes.
  try {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(data), size));
    fhc::core::FuzzyHashClassifier model;
    model.load(in);
    std::ostringstream resaved;
    model.save(resaved);
  } catch (const std::exception&) {
  }
  return 0;
}
