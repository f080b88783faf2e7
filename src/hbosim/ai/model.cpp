#include "hbosim/ai/model.hpp"

namespace hbosim::ai {

const char* task_type_abbrev(TaskType t) {
  switch (t) {
    case TaskType::ImageSegmentation: return "IS";
    case TaskType::ObjectDetection: return "OD";
    case TaskType::ImageClassification: return "IC";
    case TaskType::GestureDetection: return "GD";
    case TaskType::DigitClassification: return "DC";
  }
  return "?";
}

}  // namespace hbosim::ai
