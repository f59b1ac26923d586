"""Layered benchmark of the InQuest reproduction (see README.md)."""
