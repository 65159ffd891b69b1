// Fixture: the handler emits a response field the schema tables never
// mention — clients cannot know it exists.
namespace fx {

void handle(const Message& msg, Message& out) {
  const double period = msg.get_number("period");
  out.set("oops", period);  // line 7: undocumented field
  check_fields(msg, {{"period", Kind::kNumber}, {"wait", Kind::kBool}});
}

}  // namespace fx
