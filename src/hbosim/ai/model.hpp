#pragma once

#include <string>

/// \file model.hpp
/// AI model metadata. Latency characteristics live in the per-device
/// profiles (soc::DeviceProfile); this header only describes what a model
/// *is* (its MAR-app role), mirroring the paper's Table I/II task columns.

namespace hbosim::ai {

/// MAR-app roles from Tables I and II.
enum class TaskType {
  ImageSegmentation,    // IS
  ObjectDetection,      // OD
  ImageClassification,  // IC
  GestureDetection,     // GD
  DigitClassification,  // DC (mnist, Table II)
};

const char* task_type_abbrev(TaskType t);

struct ModelInfo {
  std::string name;  ///< Registry key, e.g. "deeplabv3".
  TaskType type;
};

}  // namespace hbosim::ai
