"""Reasoning backends and the response grammar."""
