package core

import (
	"context"
	"testing"
)

func TestPeriodicRetrainingDuringLearning(t *testing.T) {
	e, _ := newTestEngine(t, func(c *Config) {
		c.RetrainEvery = 10
		c.RetrainConfidence = 0.0
		c.LearnBudget = 120
	})
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	// bootstrap retrain (1) + at least one intermediate + final
	if e.Retrains() < 3 {
		t.Errorf("retrains = %d, want >= 3 with periodic retraining", e.Retrains())
	}
}

func TestPeriodicRetrainingDisabledByDefault(t *testing.T) {
	e, _ := newTestEngine(t, func(c *Config) { c.LearnBudget = 120 })
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	if e.Retrains() != 2 { // bootstrap + end-of-learning
		t.Errorf("retrains = %d, want 2", e.Retrains())
	}
}

func TestAddTrainingText(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.TrainingSize()
	// virtual document derived from query terms (expert-search bootstrap)
	e.AddTrainingText("ROOT/databases", "query:aries",
		"aries recovery algorithm write ahead logging transaction rollback")
	if e.TrainingSize() != before+1 {
		t.Fatalf("training size = %d", e.TrainingSize())
	}
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}
	// the virtual doc participates: removing it works too
	e.RemoveTrainingDoc("query:aries")
	if e.TrainingSize() != before {
		t.Fatalf("after remove = %d", e.TrainingSize())
	}
}

func TestArchetypeReviewHook(t *testing.T) {
	var proposed []ArchetypeCandidate
	e, _ := newTestEngine(t, func(c *Config) {
		c.ReviewArchetypes = func(topic string, cands []ArchetypeCandidate) []ArchetypeCandidate {
			proposed = append(proposed, cands...)
			// the user rejects everything
			return nil
		}
	})
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.TrainingSize()
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	if len(proposed) == 0 {
		t.Fatal("review hook never consulted")
	}
	if e.TrainingSize() != before {
		t.Errorf("rejected archetypes still promoted: %d -> %d", before, e.TrainingSize())
	}
	for _, c := range proposed {
		if c.URL == "" || c.Confidence <= 0 {
			t.Errorf("bad candidate: %+v", c)
		}
	}
}
