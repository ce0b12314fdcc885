"""Agent core: beliefs, history records, macro execution, text rendering."""
